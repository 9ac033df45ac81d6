package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Trace is the standard in-memory Tracer: a mutex-guarded event buffer
// with a monotonic microsecond clock, serialized as Chrome trace-event
// JSON. One Trace spans a whole tool invocation — the command's topology
// build, every engine the run creates and their worker pools all share it,
// each on its own tid lane.
type Trace struct {
	mu     sync.Mutex
	epoch  time.Time
	events []Event
	tids   int64
}

// NewTrace returns an empty trace whose epoch is now, pre-named with the
// process metadata event.
func NewTrace() *Trace {
	t := &Trace{epoch: time.Now()}
	t.events = append(t.events, Event{
		Name: "process_name", Ph: PhMetadata, Pid: Pid, Tid: 0,
		Args: map[string]any{"name": "topompc"},
	})
	return t
}

// Now reports microseconds since the trace epoch.
func (t *Trace) Now() float64 {
	return float64(time.Since(t.epoch)) / float64(time.Microsecond)
}

// Emit appends one event. Safe for concurrent use.
func (t *Trace) Emit(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// NewTid allocates a fresh lane and emits its thread_name metadata event.
func (t *Trace) NewTid(name string) int64 {
	t.mu.Lock()
	t.tids++
	tid := t.tids
	t.events = append(t.events, Event{
		Name: "thread_name", Ph: PhMetadata, Pid: Pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
	t.mu.Unlock()
	return tid
}

// Len reports the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events snapshots the recorded events in emission order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// traceFile is the Chrome trace-event JSON object format.
type traceFile struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit,omitempty"`
}

// WriteJSON serializes the trace in the Chrome trace-event object format
// ({"traceEvents": [...]}), loadable by chrome://tracing and Perfetto.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms"})
}

// WriteFile writes the trace JSON to a file.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
