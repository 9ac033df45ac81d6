package netsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"topompc/internal/obs"
	"topompc/internal/topology"
)

// planBatch queues the benchmark transfer batch into an open exchange.
func planBatch(x *Exchange, batch []benchTransfer) {
	for _, tf := range batch {
		if tf.dsts == nil {
			x.Out(tf.from).Send(tf.to, TagData, tf.keys)
		} else {
			x.Out(tf.from).Multicast(tf.dsts, TagData, tf.keys)
		}
	}
}

// TestExchangeSteadyStateAllocFree pins the zero-alloc arena guarantee: on
// a lean-stats engine with inline accounting, a steady-state exchange round
// (plan + execute) performs no heap allocation once the arena has grown to
// the working set.
func TestExchangeSteadyStateAllocFree(t *testing.T) {
	tr := benchCaterpillar(t)
	batch := benchTransferBatch(tr, 4096)
	e := NewEngine(tr, WithWorkers(1), WithLeanStats())

	// Warm the arena: grow outboxes, inboxes, shard tallies, and the stats
	// slice to steady state.
	for i := 0; i < 4; i++ {
		x := e.Exchange()
		planBatch(x, batch)
		x.Execute()
	}

	allocs := testing.AllocsPerRun(10, func() {
		x := e.Exchange()
		planBatch(x, batch)
		x.Execute()
	})
	if allocs != 0 {
		t.Fatalf("steady-state exchange round allocates: got %.1f allocs/op, want 0", allocs)
	}

	// The same holds when the round is planned through Plan: the shard body
	// handed to the pool is built once per exchange buffer, not per call.
	vs := tr.ComputeNodes()
	keys := []uint64{1, 2, 3}
	plan := func(v topology.NodeID, out *Outbox) {
		out.Send(vs[(int(e.cindex[v])+1)%len(vs)], TagData, keys)
	}
	planned := func() {
		x := e.Exchange()
		x.Plan(plan)
		x.Execute()
	}
	for i := 0; i < 4; i++ {
		planned()
	}
	if allocs := testing.AllocsPerRun(10, planned); allocs != 0 {
		t.Fatalf("steady-state planned round allocates: got %.1f allocs/op, want 0", allocs)
	}
}

// TestExchangeSteadyStateAllocFreeWithMetrics pins the same guarantee with
// the metrics registry attached: instruments are resolved at construction
// and updated with bare atomics, so recording must not reintroduce
// steady-state allocation. (Tracing is exempt — emitting events buffers
// them by design.)
func TestExchangeSteadyStateAllocFreeWithMetrics(t *testing.T) {
	tr := benchCaterpillar(t)
	batch := benchTransferBatch(tr, 4096)
	e := NewEngine(tr, WithWorkers(1), WithLeanStats(), WithMetrics(obs.NewRegistry()))

	for i := 0; i < 4; i++ {
		x := e.Exchange()
		planBatch(x, batch)
		x.Execute()
	}

	allocs := testing.AllocsPerRun(10, func() {
		x := e.Exchange()
		planBatch(x, batch)
		x.Execute()
	})
	if allocs != 0 {
		t.Fatalf("steady-state round with metrics allocates: got %.1f allocs/op, want 0", allocs)
	}
	if got := e.Metrics().Counter("netsim.rounds").Value(); got != 15 {
		t.Fatalf("netsim.rounds = %d, want 15 (4 warmup + 11 measured)", got)
	}
	if got := e.Metrics().Counter("netsim.arena_recycled_rounds").Value(); got != 13 {
		t.Fatalf("netsim.arena_recycled_rounds = %d, want 13 (all but the two buffer births)", got)
	}
}

// TestLeanStatsReportMatches runs the same workload on a default and a
// lean-stats engine and checks that every aggregate report query agrees;
// lean mode must only drop per-round array inspection, never change totals.
func TestLeanStatsReportMatches(t *testing.T) {
	tr := benchCaterpillar(t)
	batch := benchTransferBatch(tr, 2048)

	run := func(opts ...Option) *Report {
		e := NewEngine(tr, opts...)
		for r := 0; r < 5; r++ {
			x := e.Exchange()
			planBatch(x, batch[r*256:])
			x.Execute()
		}
		return e.Report()
	}
	full := run()
	lean := run(WithLeanStats())

	if got, want := lean.NumRounds(), full.NumRounds(); got != want {
		t.Fatalf("rounds: lean %d, full %d", got, want)
	}
	if got, want := lean.TotalCost(), full.TotalCost(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalCost: lean %v, full %v", got, want)
	}
	if got, want := lean.MPCCost(), full.MPCCost(); got != want {
		t.Errorf("MPCCost: lean %v, full %v", got, want)
	}
	if got, want := lean.TotalElements(), full.TotalElements(); got != want {
		t.Errorf("TotalElements: lean %v, full %v", got, want)
	}
	ls, lr := lean.NodeTotals()
	fs, fr := full.NodeTotals()
	if !reflect.DeepEqual(ls, fs) || !reflect.DeepEqual(lr, fr) {
		t.Errorf("NodeTotals mismatch between lean and full reports")
	}
	if !reflect.DeepEqual(lean.MaxEdgeElems(), full.MaxEdgeElems()) {
		t.Errorf("MaxEdgeElems mismatch between lean and full reports")
	}
	for i := range full.Rounds {
		lr, fr := lean.Rounds[i], full.Rounds[i]
		if lr.Cost != fr.Cost || lr.BottleneckEdge != fr.BottleneckEdge ||
			lr.MaxReceived != fr.MaxReceived || lr.Messages != fr.Messages || lr.Elements != fr.Elements {
			t.Errorf("round %d scalar stats mismatch: lean %+v, full %+v", i, lr, fr)
		}
		if lr.EdgeElems != nil || lr.NodeSent != nil || lr.NodeReceived != nil {
			t.Errorf("round %d: lean stats retained per-round arrays", i)
		}
	}
}

// TestExecuteAsyncMatchesExecute pipelines rounds with ExecuteAsync on a
// multi-worker engine and checks the final report is identical to the
// fully synchronous single-worker run, including per-round arrays.
func TestExecuteAsyncMatchesExecute(t *testing.T) {
	tr := benchCaterpillar(t)
	batch := benchTransferBatch(tr, 2048)

	run := func(async bool, opts ...Option) *Report {
		e := NewEngine(tr, opts...)
		for r := 0; r < 6; r++ {
			x := e.Exchange()
			planBatch(x, batch[r*128:])
			if async {
				x.ExecuteAsync()
			} else {
				x.Execute()
			}
		}
		return e.Report()
	}
	serial := run(false, WithWorkers(1))
	piped := run(true, WithWorkers(8))

	if len(serial.Rounds) != len(piped.Rounds) {
		t.Fatalf("rounds: serial %d, piped %d", len(serial.Rounds), len(piped.Rounds))
	}
	for i := range serial.Rounds {
		statsEqual(t, piped.Rounds[i], serial.Rounds[i])
	}
}

// TestExecuteAsyncInboxVisible checks deliveries are readable immediately
// after ExecuteAsync returns, before accounting has necessarily finished.
func TestExecuteAsyncInboxVisible(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tr, WithWorkers(4))
	vs := tr.ComputeNodes()

	x := e.Exchange()
	x.Out(vs[0]).Send(vs[1], TagData, []uint64{7, 8})
	x.ExecuteAsync()

	in := e.Inbox(vs[1]).Messages()
	if len(in) != 1 || len(in[0].Keys) != 2 || in[0].Keys[0] != 7 {
		t.Fatalf("inbox after ExecuteAsync: %+v", in)
	}
	if got := e.NumRounds(); got != 1 {
		t.Fatalf("NumRounds after ExecuteAsync = %d, want 1", got)
	}
	rep := e.Report()
	if rep.Rounds[0].Messages != 1 || rep.Rounds[0].Elements != 2 {
		t.Fatalf("round stats after ExecuteAsync: %+v", rep.Rounds[0])
	}
}

// TestExchangeReservesInboxesOnce pins count-then-reserve delivery: execute
// knows what every receiver is about to get before it delivers, so a
// receiver's first round costs one allocation per inbox array (sender, tag,
// end offset, key pool) however many messages arrive, a round twice as
// large regrows each array exactly once, and repeating it regrows nothing.
func TestExchangeReservesInboxesOnce(t *testing.T) {
	tr := benchCaterpillar(t)
	vs := tr.ComputeNodes()
	e := NewEngine(tr, WithWorkers(1), WithLeanStats())
	const k, senders = 16, 24
	keys := make([]uint64, 64)
	// round sends per messages from each sender to each of the k receivers
	// starting at vs[first].
	round := func(first, per int) {
		x := e.Exchange()
		for s := 0; s < senders; s++ {
			out := x.Out(vs[len(vs)-1-s])
			for r := 0; r < k; r++ {
				for m := 0; m < per; m++ {
					out.Send(vs[first+r], TagData, keys)
				}
			}
		}
		x.Execute()
	}
	// Grow everything but the measured inboxes to the largest round: both
	// exchange buffers' outboxes, the tallies, the stats arena.
	for i := 0; i < 4; i++ {
		round(k, 2)
	}

	// Every call delivers to k receivers that never received before.
	fresh := 2 * k
	if got := testing.AllocsPerRun(8, func() { round(fresh, 1); fresh += k }); got > 4*k {
		t.Fatalf("first delivery to %d receivers: %.0f allocs, want at most 4 per receiver", k, got)
	}

	// Both inbox buffers of receivers 0..k-1 sized for a one-message round,
	// then doubled: the warm-up call of AllocsPerRun regrows one buffer, the
	// measured call the other.
	round(0, 1)
	round(0, 1)
	if got := testing.AllocsPerRun(1, func() { round(0, 2) }); got != 4*k {
		t.Fatalf("doubled round to %d receivers: %.0f allocs, want exactly one per inbox array (%d)", k, got, 4*k)
	}
	if got := testing.AllocsPerRun(4, func() { round(0, 2) }); got != 0 {
		t.Fatalf("repeated round: %.0f allocs, want 0", got)
	}
	ib := e.Inbox(vs[0])
	if ib.Len() != 2*senders || ib.KeyCount(TagData) != 2*senders*len(keys) {
		t.Fatalf("receiver 0 got %d messages, %d keys; want %d, %d",
			ib.Len(), ib.KeyCount(TagData), 2*senders, 2*senders*len(keys))
	}
}

// TestInboxReserve: reserve sizes the four arrays exactly, leaves arrays
// with room alone, and refuses a round whose keys would wrap the int32 pool
// offsets — by name, before allocating anything.
func TestInboxReserve(t *testing.T) {
	var ib nodeInbox
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "netsim: inbox overflow") {
				t.Fatalf("reserve past int32 offsets: recovered %q, want the inbox overflow panic", msg)
			}
		}()
		ib.reserve(1, math.MaxInt32+1)
	}()
	if cap(ib.from)+cap(ib.tag)+cap(ib.end)+cap(ib.pool) != 0 {
		t.Fatalf("overflowing reserve allocated: caps %d %d %d %d", cap(ib.from), cap(ib.tag), cap(ib.end), cap(ib.pool))
	}

	ib.reserve(3, 10)
	if cap(ib.from) != 3 || cap(ib.tag) != 3 || cap(ib.end) != 3 || cap(ib.pool) != 10 {
		t.Fatalf("reserve(3, 10): caps %d %d %d %d", cap(ib.from), cap(ib.tag), cap(ib.end), cap(ib.pool))
	}
	ib.push(1, TagData, []uint64{1, 2, 3, 4})
	pool := &ib.pool[0]
	ib.reserve(2, 6)
	ib.push(2, TagR, []uint64{5, 6, 7, 8, 9, 10})
	if &ib.pool[0] != pool || cap(ib.end) != 3 {
		t.Fatalf("reserve within capacity reallocated")
	}
	ib.reserve(2, 1)
	if cap(ib.from) != 4 || cap(ib.pool) != 11 || len(ib.pool) != 10 || ib.pool[9] != 10 || ib.end[1] != 10 {
		t.Fatalf("reserve past capacity: caps %d %d, pool %v, end %v", cap(ib.from), cap(ib.pool), ib.pool, ib.end)
	}
}
