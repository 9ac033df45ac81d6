package netsim

import (
	"math"
	"reflect"
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
