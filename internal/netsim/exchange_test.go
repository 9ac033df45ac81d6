package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"topompc/internal/topology"
)

// randomOpTree builds a random all-compute tree for equivalence fuzzing.
func randomOpTree(tb testing.TB, rng *rand.Rand, n int) *topology.Tree {
	b := topology.NewBuilder()
	ids := make([]topology.NodeID, n)
	ids[0] = b.Compute("")
	for i := 1; i < n; i++ {
		ids[i] = b.Compute("")
		b.Link(ids[i], ids[rng.Intn(i)], 1+float64(rng.Intn(4)))
	}
	t, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// op is one randomly generated transfer for replay on both engines.
type fuzzOp struct {
	from topology.NodeID
	to   topology.NodeID
	dsts []topology.NodeID // nil for unicast
	tag  Tag
	keys []uint64
}

func randomOps(rng *rand.Rand, t *topology.Tree, count int) []fuzzOp {
	vs := t.ComputeNodes()
	ops := make([]fuzzOp, 0, count)
	for i := 0; i < count; i++ {
		from := vs[rng.Intn(len(vs))]
		keys := make([]uint64, rng.Intn(5)) // zero-length payloads included
		for k := range keys {
			keys[k] = rng.Uint64()
		}
		if rng.Intn(2) == 0 {
			ops = append(ops, fuzzOp{from: from, to: vs[rng.Intn(len(vs))], tag: Tag(rng.Intn(3)), keys: keys})
		} else {
			dsts := make([]topology.NodeID, rng.Intn(4)) // may be empty, contain dups and self
			for d := range dsts {
				dsts[d] = vs[rng.Intn(len(vs))]
			}
			ops = append(ops, fuzzOp{from: from, dsts: dsts, tag: Tag(rng.Intn(3)), keys: keys})
		}
	}
	return ops
}

// statsEqual compares every field of two round stats.
func statsEqual(tb testing.TB, got, want RoundStats) {
	tb.Helper()
	if !reflect.DeepEqual(got.EdgeElems, want.EdgeElems) {
		tb.Fatalf("EdgeElems: got %v, want %v", got.EdgeElems, want.EdgeElems)
	}
	if !reflect.DeepEqual(got.NodeSent, want.NodeSent) {
		tb.Fatalf("NodeSent: got %v, want %v", got.NodeSent, want.NodeSent)
	}
	if !reflect.DeepEqual(got.NodeReceived, want.NodeReceived) {
		tb.Fatalf("NodeReceived: got %v, want %v", got.NodeReceived, want.NodeReceived)
	}
	if got.Cost != want.Cost {
		tb.Fatalf("Cost: got %v, want %v", got.Cost, want.Cost)
	}
	if got.BottleneckEdge != want.BottleneckEdge {
		tb.Fatalf("BottleneckEdge: got %v, want %v", got.BottleneckEdge, want.BottleneckEdge)
	}
	if got.MaxReceived != want.MaxReceived {
		tb.Fatalf("MaxReceived: got %d, want %d", got.MaxReceived, want.MaxReceived)
	}
	if got.Messages != want.Messages {
		tb.Fatalf("Messages: got %d, want %d", got.Messages, want.Messages)
	}
	if got.Elements != want.Elements {
		tb.Fatalf("Elements: got %d, want %d", got.Elements, want.Elements)
	}
}

// TestExchangeMatchesRound replays random op batches through the serial
// per-message Round oracle and the planned Exchange and requires identical
// statistics and identical inboxes (contents and order).
func TestExchangeMatchesRound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		tr := randomOpTree(t, rng, 2+rng.Intn(40))
		ops := randomOps(rng, tr, rng.Intn(120))

		legacy := NewEngine(tr)
		rd := legacy.BeginRound()
		for _, o := range ops {
			if o.dsts == nil {
				rd.Send(o.from, o.to, o.tag, o.keys)
			} else {
				rd.Multicast(o.from, o.dsts, o.tag, o.keys)
			}
		}
		wantStats := rd.Finish()

		// The Round API accounts ops in issue order; the Exchange plans them
		// per sender and merges in compute-node order. Per-sender op order is
		// preserved, and edge sums are order-independent, so grouping by
		// sender must not change anything — but inbox interleaving across
		// senders differs unless the legacy ops are issued in sender order
		// too. Re-issue legacy ops grouped by sender for the inbox check.
		legacyOrdered := NewEngine(tr)
		rd2 := legacyOrdered.BeginRound()
		x := NewEngine(tr).Exchange()
		for _, v := range tr.ComputeNodes() {
			for _, o := range ops {
				if o.from != v {
					continue
				}
				if o.dsts == nil {
					rd2.Send(o.from, o.to, o.tag, o.keys)
					x.Out(o.from).Send(o.to, o.tag, o.keys)
				} else {
					rd2.Multicast(o.from, o.dsts, o.tag, o.keys)
					x.Out(o.from).Multicast(o.dsts, o.tag, o.keys)
				}
			}
		}
		wantOrdered := rd2.Finish()
		gotStats := x.Execute()

		statsEqual(t, gotStats, wantOrdered)
		// Aggregate sums are also identical to the unordered issue order.
		statsEqual(t, RoundStats{
			EdgeElems: gotStats.EdgeElems, NodeSent: gotStats.NodeSent,
			NodeReceived: gotStats.NodeReceived, Cost: gotStats.Cost,
			BottleneckEdge: gotStats.BottleneckEdge, MaxReceived: gotStats.MaxReceived,
			Messages: gotStats.Messages, Elements: gotStats.Elements,
		}, wantStats)

		xe := x.e
		for _, v := range tr.ComputeNodes() {
			if !reflect.DeepEqual(xe.Inbox(v).Messages(), legacyOrdered.Inbox(v).Messages()) {
				t.Fatalf("trial %d: inbox of %d differs:\n got %v\nwant %v",
					trial, v, xe.Inbox(v), legacyOrdered.Inbox(v))
			}
		}
	}
}

// replaySerially is the oracle side of the Plan tests: it runs plan for
// every compute node in order, each into a fresh outbox, and replays the
// queued ops one by one through the per-message Round API.
func replaySerially(e *Engine, plan func(v topology.NodeID, out *Outbox)) RoundStats {
	rd := e.BeginRound()
	for _, v := range e.Tree().ComputeNodes() {
		ob := Outbox{log: new(opLog)}
		plan(v, &ob)
		for _, o := range ob.log.ops[ob.lo:ob.hi] {
			if o.to == topology.NoNode {
				rd.Multicast(v, ob.log.dsts[o.dlo:o.dhi], o.tag, o.keys)
			} else {
				rd.Send(v, o.to, o.tag, o.keys)
			}
		}
	}
	return rd.Finish()
}

// TestExchangePlanMatchesRoundParallel runs the canonical protocol shape —
// per-node planning forked across the pool — and checks full equivalence
// with the serial per-message replay of the same plan, at every worker
// count.
func TestExchangePlanMatchesRoundParallel(t *testing.T) {
	tr, err := topology.TwoTier([]int{3, 3, 3}, []float64{4, 2, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	plan := func(v topology.NodeID, out *Outbox) {
		i := int(v)
		out.Send(vs[(i+1)%len(vs)], TagData, []uint64{uint64(i), uint64(i * i)})
		out.Multicast([]topology.NodeID{vs[0], vs[len(vs)-1], vs[0]}, TagR, []uint64{uint64(i)})
		out.Send(v, TagS, []uint64{7}) // self-send
	}

	legacy := NewEngine(tr)
	want := replaySerially(legacy, plan)

	for _, workers := range []int{1, 2, 4, 64} {
		ex := NewEngine(tr, WithWorkers(workers))
		x := ex.Exchange()
		x.Plan(plan)
		got := x.Execute()

		statsEqual(t, got, want)
		for _, v := range vs {
			if !reflect.DeepEqual(ex.Inbox(v).Messages(), legacy.Inbox(v).Messages()) {
				t.Fatalf("workers=%d: inbox of %d differs", workers, v)
			}
		}
	}
}

// TestExchangeWorkerCounts runs the same plan under different worker
// budgets; sharded accounting must not change any statistic.
func TestExchangeWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tr := randomOpTree(t, rng, 33)
	ops := randomOps(rng, tr, 300)
	run := func(workers int) RoundStats {
		e := NewEngine(tr, WithWorkers(workers))
		x := e.Exchange()
		for _, v := range tr.ComputeNodes() {
			for _, o := range ops {
				if o.from != v {
					continue
				}
				if o.dsts == nil {
					x.Out(o.from).Send(o.to, o.tag, o.keys)
				} else {
					x.Out(o.from).Multicast(o.dsts, o.tag, o.keys)
				}
			}
		}
		return x.Execute()
	}
	want := run(1)
	for _, w := range []int{2, 3, 8, 64} {
		statsEqual(t, run(w), want)
	}
}

// TestExchangeSelfSend: self-sends are cost-free but still delivered.
func TestExchangeSelfSend(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	x := e.Exchange()
	x.Out(vs[0]).Send(vs[0], TagData, []uint64{1, 2, 3})
	stats := x.Execute()
	if stats.Cost != 0 {
		t.Fatalf("self-send cost = %v, want 0", stats.Cost)
	}
	if stats.NodeSent[vs[0]] != 0 || stats.NodeReceived[vs[0]] != 0 {
		t.Fatalf("self-send touched sent/received: %v %v", stats.NodeSent, stats.NodeReceived)
	}
	in := e.Inbox(vs[0]).Messages()
	if len(in) != 1 || len(in[0].Keys) != 3 {
		t.Fatalf("self-send not delivered: %v", in)
	}
}

// TestExchangeMulticastDuplicates: duplicate destinations are delivered
// once and charged once.
func TestExchangeMulticastDuplicates(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	x := e.Exchange()
	x.Out(vs[0]).Multicast([]topology.NodeID{vs[1], vs[1], vs[1], vs[2]}, TagData, []uint64{9, 9})
	stats := x.Execute()
	if got := e.Inbox(vs[1]).Len(); got != 1 {
		t.Fatalf("duplicate destination delivered %d times, want 1", got)
	}
	if stats.Messages != 2 {
		t.Fatalf("messages = %d, want 2", stats.Messages)
	}
	// Steiner accounting: each of the three star links carries the payload
	// once (sender uplink, two receiver downlinks).
	for ed, n := range stats.EdgeElems {
		if n != 2 {
			t.Fatalf("edge %d carries %d, want 2", ed, n)
		}
	}
}

// TestExchangeMulticastDuplicatesOverReserve: a multicast naming a
// destination several times counts and delivers it once — the arena has a
// row per delivery and none to spare — in sender order with the round's
// other messages, payloads intact.
func TestExchangeMulticastDuplicatesOverReserve(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	x := e.Exchange()
	x.Out(vs[0]).Multicast([]topology.NodeID{vs[1], vs[1], vs[2], vs[1]}, TagR, []uint64{7, 8})
	x.Out(vs[2]).Send(vs[1], TagS, []uint64{9})
	if stats := x.Execute(); stats.Messages != 3 || stats.Elements != 5 {
		t.Fatalf("messages, elements = %d, %d; want 3, 5", stats.Messages, stats.Elements)
	}
	want := []Message{
		{From: vs[0], To: vs[1], Tag: TagR, Keys: []uint64{7, 8}},
		{From: vs[2], To: vs[1], Tag: TagS, Keys: []uint64{9}},
	}
	if got := e.Inbox(vs[1]).Messages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("inbox of the repeated destination = %v, want %v", got, want)
	}
	if a := e.inboxCur; len(a.hdr) != 3 || len(a.pool) != 5 {
		t.Fatalf("arena holds %d rows and %d keys for 3 deliveries of 5 keys", len(a.hdr), len(a.pool))
	}
}

// TestExchangeInboxRecycling: inboxes swap across rounds and are not
// retained.
func TestExchangeInboxRecycling(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)

	x := e.Exchange()
	x.Out(vs[0]).Send(vs[1], TagData, []uint64{1})
	x.Execute()
	if e.Inbox(vs[1]).Len() != 1 {
		t.Fatalf("round 1 delivery missing")
	}

	x = e.Exchange()
	x.Out(vs[1]).Send(vs[0], TagData, []uint64{2})
	x.Execute()
	if e.Inbox(vs[1]).Len() != 0 {
		t.Fatalf("round 1 inbox leaked into round 2: %v", e.Inbox(vs[1]).Messages())
	}
	if e.Inbox(vs[0]).Len() != 1 || e.Inbox(vs[0]).At(0).Keys[0] != 2 {
		t.Fatalf("round 2 delivery wrong: %v", e.Inbox(vs[0]).Messages())
	}
	if e.NumRounds() != 2 {
		t.Fatalf("NumRounds = %d, want 2", e.NumRounds())
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

// TestExchangeMisusePanics: the exchange lifecycle is enforced like the
// Round lifecycle.
func TestExchangeMisusePanics(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()

	mustPanic(t, "Exchange while round open", func() {
		e := NewEngine(tr)
		e.BeginRound()
		e.Exchange()
	})
	mustPanic(t, "BeginRound while exchange open", func() {
		e := NewEngine(tr)
		e.Exchange()
		e.BeginRound()
	})
	mustPanic(t, "Execute twice", func() {
		x := NewEngine(tr).Exchange()
		x.Execute()
		x.Execute()
	})
	mustPanic(t, "Plan after Execute", func() {
		x := NewEngine(tr).Exchange()
		x.Execute()
		x.Plan(func(topology.NodeID, *Outbox) {})
	})
	mustPanic(t, "Out after Execute", func() {
		x := NewEngine(tr).Exchange()
		x.Execute()
		x.Out(vs[0])
	})
	mustPanic(t, "router sender", func() {
		x := NewEngine(tr).Exchange()
		x.Out(tr.Root())
	})
	mustPanic(t, "router receiver", func() {
		x := NewEngine(tr).Exchange()
		x.Out(vs[0]).Send(tr.Root(), TagData, nil)
		x.Execute()
	})
	mustPanic(t, "router multicast receiver", func() {
		x := NewEngine(tr).Exchange()
		x.Out(vs[0]).Multicast([]topology.NodeID{tr.Root()}, TagData, nil)
		x.Execute()
	})
}

// TestRejectedPlanLeavesEngineUntouched: a plan refused by Execute — a
// router receiver behind valid sends, a router in a multicast behind
// destinations the tally walk has already rewritten, or one receiver sent
// more keys than int32 offsets address — panics by name on the caller's
// goroutine before any arena array is allocated, and leaves the inboxes, the
// round count and the costs of the rounds that follow exactly as an engine
// that never saw it. Price refuses the router receivers the same way.
func TestRejectedPlanLeavesEngineUntouched(t *testing.T) {
	tr, err := topology.TwoTier([]int{3, 2, 3}, []float64{4, 2, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	huge := make([]uint64, 1<<20)
	good := func(e *Engine, r int) RoundStats {
		x := e.Exchange()
		x.Plan(func(v topology.NodeID, out *Outbox) {
			i := e.t.ComputeIndex(v)
			out.Send(vs[(i+r+1)%len(vs)], TagData, []uint64{uint64(i), uint64(r)})
			out.Multicast([]topology.NodeID{vs[0], v, vs[r%len(vs)]}, TagR, []uint64{uint64(r)})
		})
		return x.Execute()
	}
	rejected := map[string]struct {
		want string
		plan func(x *Exchange)
	}{
		"router receiver": {fmt.Sprintf("netsim: receiver %d is not a compute node", tr.Root()), func(x *Exchange) {
			x.Out(vs[0]).Send(vs[1], TagData, []uint64{1})
			x.Out(vs[2]).Multicast([]topology.NodeID{vs[3], vs[0]}, TagS, []uint64{2, 3})
			x.Out(vs[len(vs)-1]).Multicast([]topology.NodeID{vs[1], tr.Root()}, TagData, nil)
		}},
		// Every shard has replaced receivers by compute indices, and the
		// refused multicast has packed three destinations over its own list,
		// by the time the router is seen.
		"router behind packed destinations": {fmt.Sprintf("netsim: receiver %d is not a compute node", tr.Root()), func(x *Exchange) {
			n := len(vs)
			for i, v := range vs {
				x.Out(v).Send(vs[(i+3)%n], TagData, []uint64{uint64(i)})
				x.Out(v).Multicast([]topology.NodeID{vs[(i+1)%n], vs[(i+1)%n], v, vs[(i+2)%n]}, TagR, []uint64{1, 2})
			}
			x.Out(vs[n/2]).Multicast([]topology.NodeID{vs[2], vs[2], vs[0], vs[n/2], tr.Root(), vs[1]}, TagS, []uint64{5})
		}},
		"inbox overflow": {"netsim: inbox overflow: 2147483648 keys for one receiver", func(x *Exchange) {
			x.Out(vs[0]).Send(vs[2], TagData, []uint64{1})
			for i := 0; i <= math.MaxInt32/len(huge); i++ {
				x.Out(vs[i%3]).Send(vs[4], TagData, huge)
			}
		}},
	}
	for name, rj := range rejected {
		for _, workers := range []int{1, 4} {
			for _, mode := range []struct {
				lean, priced bool
			}{{false, false}, {true, false}, {false, true}, {true, true}} {
				lean := mode.lean
				if mode.priced && name == "inbox overflow" {
					continue // Price lays out no arena, so it has no offsets to overflow
				}
				opts := []Option{WithWorkers(workers)}
				if lean {
					opts = append(opts, WithLeanStats())
				}
				e, control := NewEngine(tr, opts...), NewEngine(tr, opts...)
				good(e, 0)
				good(control, 0)

				x := e.Exchange()
				rj.plan(x)
				next := *e.inboxNext
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.HasPrefix(msg, rj.want) {
							t.Fatalf("%s: recovered %q, want %q", name, msg, rj.want)
						}
					}()
					if mode.priced {
						x.Price()
					} else {
						x.Execute()
					}
				}()
				if after := *e.inboxNext; cap(after.hdr) != cap(next.hdr) || cap(after.pool) != cap(next.pool) {
					t.Fatalf("%s: the refused plan resized the arena", name)
				}
				for w := range x.logs {
					l := &x.logs[w]
					for _, o := range l.ops[:cap(l.ops)] {
						if o.keys != nil {
							t.Fatalf("%s: log %d still holds a payload of the refused plan", name, w)
						}
					}
					if len(l.ops) != 0 || len(l.dsts) != 0 {
						t.Fatalf("%s: log %d keeps %d ops and %d destinations of the refused plan", name, w, len(l.ops), len(l.dsts))
					}
				}
				if e.NumRounds() != 1 {
					t.Fatalf("%s: NumRounds = %d after the refused plan, want 1", name, e.NumRounds())
				}
				for _, v := range vs {
					if !reflect.DeepEqual(e.Inbox(v).Messages(), control.Inbox(v).Messages()) {
						t.Fatalf("%s: the refused plan changed the inbox of %d", name, v)
					}
				}
				for r := 1; r < 4; r++ {
					statsEqual(t, good(e, r), good(control, r))
				}
				if !reflect.DeepEqual(e.Report(), control.Report()) {
					t.Fatalf("%s (workers %d, lean %v, priced %v): reports differ after the refused plan", name, workers, lean, mode.priced)
				}
			}
		}
	}
}

// TestRoundMisusePanics covers the legacy lifecycle panics alongside the
// exchange ones.
func TestRoundMisusePanics(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()

	mustPanic(t, "BeginRound twice", func() {
		e := NewEngine(tr)
		e.BeginRound()
		e.BeginRound()
	})
	mustPanic(t, "Finish twice", func() {
		e := NewEngine(tr)
		rd := e.BeginRound()
		rd.Finish()
		rd.Finish()
	})
	mustPanic(t, "Send on finished round", func() {
		e := NewEngine(tr)
		rd := e.BeginRound()
		rd.Finish()
		rd.Send(vs[0], vs[1], TagData, nil)
	})
}

// TestInboxKeysByTag: KeyCount, AppendKeys and Keys select the messages of
// one tag, keep delivery order, and Keys hands out a copy the caller owns.
func TestInboxKeysByTag(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	x := e.Exchange()
	x.Out(vs[0]).Send(vs[2], TagR, []uint64{5, 1})
	x.Out(vs[0]).Send(vs[2], TagS, []uint64{7})
	x.Out(vs[1]).Send(vs[2], TagR, []uint64{3})
	x.Out(vs[1]).Send(vs[2], TagR, nil)
	x.Execute()
	ib := e.Inbox(vs[2])
	if got := ib.KeyCount(TagR); got != 3 {
		t.Fatalf("KeyCount(TagR) = %d, want 3", got)
	}
	want := []uint64{9, 5, 1, 3}
	if got := ib.AppendKeys([]uint64{9}, TagR); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendKeys(TagR) = %v, want %v", got, want)
	}
	keys := ib.Keys(TagS)
	if !reflect.DeepEqual(keys, []uint64{7}) || cap(keys) != 1 {
		t.Fatalf("Keys(TagS) = %v (cap %d), want [7] at its final size", keys, cap(keys))
	}
	keys[0] = 0
	if ib.At(1).Keys[0] != 7 {
		t.Fatal("Keys aliases the inbox pool")
	}
	if ib.Keys(TagData) != nil || e.Inbox(vs[0]).Keys(TagR) != nil {
		t.Fatal("Keys of an absent tag must be nil")
	}
}
