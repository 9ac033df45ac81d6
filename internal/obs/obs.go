// Package obs is the engine's flight recorder: a zero-overhead-when-
// disabled instrumentation layer of structured tracing, lightweight
// metrics, and profiling plumbing shared by the exchange engine, its
// worker pool, and the command-line tools. Protocols do not import it:
// they name their rounds (netsim.Exchange.Label) and feed their counters
// through the engine's registry.
//
// The paper's whole contribution is accounting — cost = Σ_i max_e
// |Y_i(e)|/w_e — and this package makes that accounting observable
// *inside* a run instead of only as a final total: which step each round
// was, where its bottleneck sits, which candidate each planner decision
// picked and at what price, and how the kernels' shards spread over the
// workers.
//
// Tracing. A Tracer is an event sink; Trace is the standard in-memory
// implementation, exported as Chrome trace-event JSON (loadable in
// chrome://tracing or https://ui.perfetto.dev). Producers emit through the
// nil-safe helpers (Begin/Span.End, Instant), so a nil Tracer costs one
// pointer comparison and zero allocations — the contract that preserves
// the engine's zero-alloc steady state, pinned by
// netsim.TestExchangeSteadyStateAllocFree.
//
// Metrics. A Registry holds named counters, gauges, and power-of-two
// histograms behind atomic operations. Producers resolve instruments once
// and update them on hot paths without locks or allocation; consumers
// snapshot the registry into BENCH json records or publish it through
// expvar for live inspection.
package obs

// Pid is the process id stamped on every emitted event. The simulator is
// one process; lanes are distinguished by tid.
const Pid = 1

// Event is one Chrome trace-event (the JSON array format of
// chrome://tracing). Ts and Dur are microseconds since the trace epoch.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Event phase values (the subset of the trace-event format the recorder
// emits and the schema check accepts).
const (
	PhComplete = "X" // span with Ts + Dur
	PhInstant  = "i" // point event
	PhCounter  = "C" // counter sample
	PhMetadata = "M" // process/thread naming
	PhBegin    = "B" // span begin (accepted, not emitted)
	PhEnd      = "E" // span end (accepted, not emitted)
)

// Tracer is the sink interface of the flight recorder. Implementations
// must be safe for concurrent use: a par pool emits one span per shard from
// the worker goroutine running it, while the engine emits round events and
// plan instants from the driver goroutine.
//
// Producers hold a Tracer interface value that is nil when tracing is
// disabled and guard every emission (and every argument-map construction)
// behind a nil check — the helpers below do this for them.
type Tracer interface {
	// Emit records one event.
	Emit(e Event)
	// Now reports microseconds since the trace epoch.
	Now() float64
	// NewTid allocates a fresh lane (thread id) named in the trace
	// viewer's left-hand column, e.g. "netsim rounds" or "par worker 0".
	NewTid(name string) int64
}

// Span is an open duration measurement; End emits it as one complete
// ("X") event. The zero Span (from Begin on a nil Tracer) is inert.
type Span struct {
	tr   Tracer
	name string
	cat  string
	tid  int64
	t0   float64
}

// Begin opens a span on the given lane. Safe on a nil Tracer: returns the
// inert zero Span.
func Begin(tr Tracer, tid int64, name, cat string) Span {
	if tr == nil {
		return Span{}
	}
	return Span{tr: tr, name: name, cat: cat, tid: tid, t0: tr.Now()}
}

// End closes the span, emitting a complete event with the given args
// (which may be nil). No-op on the zero Span.
func (s Span) End(args map[string]any) {
	if s.tr == nil {
		return
	}
	s.tr.Emit(Event{
		Name: s.name, Cat: s.cat, Ph: PhComplete,
		Ts: s.t0, Dur: s.tr.Now() - s.t0,
		Pid: Pid, Tid: s.tid, Args: args,
	})
}

// Instant emits a point event. Safe on a nil Tracer.
func Instant(tr Tracer, tid int64, name, cat string, args map[string]any) {
	if tr == nil {
		return
	}
	tr.Emit(Event{
		Name: name, Cat: cat, Ph: PhInstant,
		Ts: tr.Now(), Pid: Pid, Tid: tid, Args: args,
	})
}
