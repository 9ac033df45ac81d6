package netsim

import (
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
	// handed to the pool is built once per engine, not per call.
	vs := tr.ComputeNodes()
	keys := []uint64{1, 2, 3}
	plan := func(v topology.NodeID, out *Outbox) {
		out.Send(vs[(e.t.ComputeIndex(v)+1)%len(vs)], TagData, keys)
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
	if got := e.Metrics().Counter("netsim.arena_recycled_rounds").Value(); got != 14 {
		t.Fatalf("netsim.arena_recycled_rounds = %d, want 14 (all but the buffer's birth)", got)
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

	if err := reportsAgree(lean, full); err != nil {
		t.Fatalf("lean report differs from full: %v", err)
	}
	for i, lr := range lean.Rounds {
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

// TestExchangeReservesInboxesOnce pins count-then-scatter delivery: execute
// knows what the round delivers before it writes a row, so a round that
// outgrows the arena costs one allocation per arena array (sender, tag, end
// offset, key pool) however many receivers and messages it has, and
// repeating it allocates nothing.
func TestExchangeReservesInboxesOnce(t *testing.T) {
	tr := benchCaterpillar(t)
	vs := tr.ComputeNodes()
	e := NewEngine(tr, WithWorkers(1), WithLeanStats())
	const k, senders = 16, 24
	round := func(dsts []topology.NodeID, keys []uint64) {
		x := e.Exchange()
		for s := 0; s < senders; s++ {
			x.Out(vs[len(vs)-1-s]).Multicast(dsts, TagData, keys)
		}
		x.Execute()
	}
	// A destination named k times is one delivery: these rounds grow both
	// buffers' outboxes to k destinations per op, and both arenas to
	// `senders` rows of two keys.
	repeated := make([]topology.NodeID, k)
	for i := range repeated {
		repeated[i] = vs[0]
	}
	for i := 0; i < 4; i++ {
		round(repeated, make([]uint64, 2))
	}

	// k distinct destinations and longer payloads: the same outbox space,
	// k times the rows and 128k times the keys. The warm-up call of
	// AllocsPerRun regrows one arena, the measured call the other.
	keys := make([]uint64, 256)
	if got := testing.AllocsPerRun(1, func() { round(vs[:k], keys) }); got != 2 {
		t.Fatalf("outgrown round to %d receivers: %.0f allocs, want exactly one per arena array (2)", k, got)
	}
	if got := testing.AllocsPerRun(4, func() { round(vs[:k], keys) }); got != 0 {
		t.Fatalf("repeated round: %.0f allocs, want 0", got)
	}
	for _, a := range []*inboxArena{e.inboxCur, e.inboxNext} {
		if cap(a.hdr) != k*senders || cap(a.pool) != k*senders*len(keys) {
			t.Fatalf("arena caps %d %d, want the round's exact size (%d rows, %d keys)",
				cap(a.hdr), cap(a.pool), k*senders, k*senders*len(keys))
		}
	}
	ib := e.Inbox(vs[3])
	if ib.Len() != senders || ib.KeyCount(TagData) != senders*len(keys) {
		t.Fatalf("receiver 3 got %d messages, %d keys; want %d, %d", ib.Len(), ib.KeyCount(TagData), senders, senders*len(keys))
	}

	// The volume falls for good: six light rounds apiece and both pools
	// (98304 keys, over arenaShrinkMin) have been halved.
	for i := 0; i < 12; i++ {
		round(repeated, keys[:2])
	}
	if c, n := cap(e.inboxCur.pool), cap(e.inboxNext.pool); c != k*senders*len(keys)/2 || n != c {
		t.Fatalf("pool caps %d and %d after the decay, want %d", c, n, k*senders*len(keys)/2)
	}
}

// TestInboxReserve: fit sizes the two arena arrays exactly and reuses
// arrays with room; an array of at least arenaShrinkMin elements is halved
// once the recent peak — the largest round, forgotten at a quarter per
// round — is down to a quarter of its capacity, so one heavy round in a
// few keeps the arena and a volume that stays low gives it back by halves.
func TestInboxReserve(t *testing.T) {
	var a inboxArena
	a.fit(3, 10)
	if cap(a.hdr) != 3 || cap(a.pool) != 10 {
		t.Fatalf("fit(3, 10): caps %d %d", cap(a.hdr), cap(a.pool))
	}
	pool, hdr := &a.pool[0], &a.hdr[0]
	a.fit(2, 6)
	if &a.pool[0] != pool || &a.hdr[0] != hdr || len(a.hdr) != 2 || cap(a.hdr) != 3 || len(a.pool) != 6 || cap(a.pool) != 10 {
		t.Fatalf("fit within capacity reallocated: lens %d %d, caps %d %d", len(a.hdr), len(a.pool), cap(a.hdr), cap(a.pool))
	}
	a.fit(4, 11)
	if cap(a.hdr) != 4 || cap(a.pool) != 11 {
		t.Fatalf("fit(4, 11): caps %d %d, want exact sizes", cap(a.hdr), cap(a.pool))
	}

	// A contraction phase: one heavy round, three light ones, three times.
	const heavy = 4 * arenaShrinkMin
	for phase := 0; phase < 3; phase++ {
		a.fit(4, heavy)
		for light := 0; light < 3; light++ {
			a.fit(4, 10)
			if cap(a.pool) != heavy || len(a.pool) != 10 {
				t.Fatalf("phase %d, light round %d: pool cap %d len %d, want the heavy round's %d kept", phase, light, cap(a.pool), len(a.pool), heavy)
			}
		}
	}
	// The volume stays low: the pool comes down by halves, a step every few
	// rounds, to under arenaShrinkMin and no further. The row arrays are far
	// smaller than that and are left alone.
	rounds, caps := 0, []int{}
	for c := cap(a.pool); rounds < 100 && c >= arenaShrinkMin; rounds++ {
		a.fit(4, 10)
		if cap(a.pool) != c {
			if c = cap(a.pool); c != heavy>>(len(caps)+1) {
				t.Fatalf("round %d: pool cap %d, want a halving to %d", rounds, c, heavy>>(len(caps)+1))
			}
			caps = append(caps, c)
		}
	}
	if len(caps) != 3 || rounds < 6 || rounds > 20 {
		t.Fatalf("decay took %d rounds through caps %v; want three halvings (to %d), a few rounds apiece", rounds, caps, arenaShrinkMin/2)
	}
	for i := 0; i < 20; i++ {
		a.fit(4, 10)
	}
	if cap(a.pool) != arenaShrinkMin/2 || cap(a.hdr) != 4 {
		t.Fatalf("arrays under arenaShrinkMin shrank: pool cap %d, header cap %d", cap(a.pool), cap(a.hdr))
	}
}
