package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestTraceCollectAndRoundTrip(t *testing.T) {
	tr := NewTrace()
	tid := tr.NewTid("test lane")
	sp := Begin(tr, tid, "work", "cat")
	Instant(tr, tid, "ping", "cat", map[string]any{"k": 1})
	tr.Emit(Event{Name: "load", Ph: PhCounter, Ts: tr.Now(), Pid: Pid, Tid: tid, Args: map[string]any{"v": 2.5}})
	sp.End(map[string]any{"cost": 3.0})

	// process_name + thread_name + instant + counter + span.
	if got := tr.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := ValidateTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("ValidateTraceJSON: %v", err)
	}
	events, err := ParseTraceJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseTraceJSON: %v", err)
	}
	if len(events) != 5 {
		t.Fatalf("round-trip kept %d events, want 5", len(events))
	}
	var span *Event
	for i := range events {
		if events[i].Ph == PhComplete {
			span = &events[i]
		}
	}
	if span == nil {
		t.Fatal("no complete event survived the round trip")
	}
	if span.Name != "work" || span.Cat != "cat" || span.Tid != tid {
		t.Fatalf("span fields wrong: %+v", span)
	}
	if span.Dur < 0 {
		t.Fatalf("span duration negative: %v", span.Dur)
	}
	if cost, ok := span.Args["cost"].(float64); !ok || cost != 3.0 {
		t.Fatalf("span args lost: %+v", span.Args)
	}
}

func TestTraceWriteFile(t *testing.T) {
	tr := NewTrace()
	Instant(tr, tr.NewTid("lane"), "e", "c", nil)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceJSON(data); err != nil {
		t.Fatalf("written file fails schema: %v", err)
	}
}

func TestNilTracerHelpersAreInert(t *testing.T) {
	sp := Begin(nil, 0, "x", "y")
	sp.End(map[string]any{"a": 1}) // must not panic
	Instant(nil, 0, "x", "y", nil)

	allocs := testing.AllocsPerRun(100, func() {
		s := Begin(nil, 0, "x", "y")
		s.End(nil)
		Instant(nil, 0, "x", "y", nil)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer helpers allocate %v/op, want 0", allocs)
	}
}

func TestTraceConcurrentEmit(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tid := tr.NewTid("g")
			for i := 0; i < 100; i++ {
				Instant(tr, tid, "e", "c", nil)
			}
		}()
	}
	wg.Wait()
	// 1 process_name + 8 thread_name + 800 instants.
	if got := tr.Len(); got != 809 {
		t.Fatalf("Len = %d, want 809", got)
	}
}

func TestValidateTraceJSONRejects(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"not json", `{`, "trace JSON"},
		{"no array", `{"foo": 1}`, "no traceEvents"},
		{"empty", `{"traceEvents": []}`, "no events"},
		{"no name", `{"traceEvents":[{"ph":"i","ts":0,"pid":1,"tid":1}]}`, "has no name"},
		{"bad phase", `{"traceEvents":[{"name":"e","ph":"Z","ts":0,"pid":1,"tid":1}]}`, "unknown phase"},
		{"negative ts", `{"traceEvents":[{"name":"e","ph":"i","ts":-1,"pid":1,"tid":1}]}`, "negative timestamp"},
		{"dur on instant", `{"traceEvents":[{"name":"e","ph":"i","ts":0,"dur":5,"pid":1,"tid":1}]}`, "has a duration"},
		{"metadata no name arg", `{"traceEvents":[{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1}]}`, "no args.name"},
		{"unbalanced end", `{"traceEvents":[{"name":"e","ph":"E","ts":0,"pid":1,"tid":1}]}`, "unopened span"},
		{"unclosed begin", `{"traceEvents":[{"name":"e","ph":"B","ts":0,"pid":1,"tid":1}]}`, "unclosed span"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateTraceJSON([]byte(c.json))
			if err == nil {
				t.Fatalf("validation passed, want error containing %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

func TestValidateTraceJSONAcceptsBalancedBE(t *testing.T) {
	js := `{"traceEvents":[
		{"name":"s","ph":"B","ts":0,"pid":1,"tid":1},
		{"name":"s","ph":"E","ts":5,"pid":1,"tid":1}
	]}`
	if err := ValidateTraceJSON([]byte(js)); err != nil {
		t.Fatalf("balanced B/E rejected: %v", err)
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("rounds")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("rounds") != c {
		t.Fatal("Counter not memoized")
	}

	g := r.Gauge("peak")
	g.SetMax(2.5)
	g.SetMax(1.0) // lower: ignored
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.SetMax(7.25)
	if got := g.Value(); got != 7.25 {
		t.Fatalf("gauge after SetMax = %v, want 7.25", got)
	}

	h := r.Histogram("cost")
	for _, v := range []float64{0.5, 1, 3, 100, -2} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("hist count = %d, want 5", got)
	}
	if got := h.Sum(); got != 104.5 {
		t.Fatalf("hist sum = %v, want 104.5", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("hist max = %v, want 100", got)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 4 {
		t.Fatalf("p50 = %v, want within (0, 4]", q)
	}

	snap := r.Snapshot()
	if snap["rounds"] != 5 || snap["peak"] != 7.25 {
		t.Fatalf("snapshot scalars wrong: %v", snap)
	}
	if snap["cost.count"] != 5 || snap["cost.sum"] != 104.5 || snap["cost.max"] != 100 {
		t.Fatalf("snapshot histogram wrong: %v", snap)
	}
	if mean := snap["cost.mean"]; math.Abs(mean-20.9) > 1e-9 {
		t.Fatalf("snapshot mean = %v, want 20.9", mean)
	}

	keys := SnapshotKeys(snap)
	if len(keys) != len(snap) {
		t.Fatalf("SnapshotKeys dropped entries: %d vs %d", len(keys), len(snap))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("SnapshotKeys unsorted at %d: %v", i, keys)
		}
	}
}

func TestNilRegistryChainIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	c.Inc()
	c.Add(3)
	g.SetMax(2)
	h.Observe(4)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments recorded values")
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil registry snapshot non-empty: %v", snap)
	}

	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.SetMax(1)
		h.Observe(2)
	})
	if allocs != 0 {
		t.Fatalf("nil instruments allocate %v/op, want 0", allocs)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n")
			h := r.Histogram("v")
			for i := 0; i < 200; i++ {
				c.Inc()
				h.Observe(float64(i))
				r.Gauge("peak").SetMax(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.Histogram("v").Count(); got != 1600 {
		t.Fatalf("hist count = %d, want 1600", got)
	}
	if got := r.Histogram("v").Max(); got != 199 {
		t.Fatalf("hist max = %v, want 199", got)
	}
	if got := r.Gauge("peak").Value(); got != 199 {
		t.Fatalf("gauge = %v, want 199", got)
	}
}
