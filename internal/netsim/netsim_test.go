package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"topompc/internal/topology"
)

func star(t *testing.T, bws ...float64) *topology.Tree {
	t.Helper()
	tr, err := topology.Star(bws)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestUnicastCostStar(t *testing.T) {
	tr := star(t, 1, 2) // v1 with bw 1, v2 with bw 2
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	rd := e.BeginRound()
	rd.Send(vs[0], vs[1], TagData, make([]uint64, 10))
	st := rd.Finish()
	// 10 elements cross both links: v1—w at bw 1 (cost 10), w—v2 at bw 2
	// (cost 5). Round cost = 10.
	if st.Cost != 10 {
		t.Errorf("round cost = %v, want 10", st.Cost)
	}
	if st.Messages != 1 || st.Elements != 10 {
		t.Errorf("messages=%d elements=%d, want 1/10", st.Messages, st.Elements)
	}
	if got := e.Inbox(vs[1]).Messages(); len(got) != 1 || len(got[0].Keys) != 10 {
		t.Fatalf("inbox of v2 = %v", got)
	}
	if got := e.Inbox(vs[0]).Messages(); len(got) != 0 {
		t.Fatalf("inbox of v1 should be empty, got %v", got)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	tr := star(t, 1, 1)
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	rd := e.BeginRound()
	rd.Send(vs[0], vs[0], TagData, make([]uint64, 100))
	st := rd.Finish()
	if st.Cost != 0 {
		t.Errorf("self-send cost = %v, want 0", st.Cost)
	}
	if e.Inbox(vs[0]).Len() != 1 {
		t.Error("self-send not delivered")
	}
}

func TestMulticastChargesSteinerOnce(t *testing.T) {
	// Caterpillar v1-w1-w2-w3 with legs; multicast from v1 to v2 and v3
	// charges the shared spine edge once.
	tr, err := topology.Caterpillar([]float64{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	rd := e.BeginRound()
	rd.Multicast(vs[0], []topology.NodeID{vs[1], vs[2]}, TagData, make([]uint64, 7))
	st := rd.Finish()

	// Unicast equivalent for comparison.
	e2 := NewEngine(tr)
	rd2 := e2.BeginRound()
	rd2.Send(vs[0], vs[1], TagData, make([]uint64, 7))
	rd2.Send(vs[0], vs[2], TagData, make([]uint64, 7))
	st2 := rd2.Finish()

	var multiTotal, uniTotal int64
	for i := range st.EdgeElems {
		multiTotal += st.EdgeElems[i]
		uniTotal += st2.EdgeElems[i]
		if st.EdgeElems[i] > st2.EdgeElems[i] {
			t.Errorf("edge %d: multicast %d > unicast %d", i, st.EdgeElems[i], st2.EdgeElems[i])
		}
	}
	if multiTotal >= uniTotal {
		t.Errorf("multicast total %d should beat unicast total %d on shared edges", multiTotal, uniTotal)
	}
	// Both destinations received the payload.
	if e.Inbox(vs[1]).Len() != 1 || e.Inbox(vs[2]).Len() != 1 {
		t.Error("multicast not delivered to all destinations")
	}
}

func TestMulticastSingleDestEqualsUnicast(t *testing.T) {
	tr := star(t, 1, 1, 1)
	vs := tr.ComputeNodes()
	e1 := NewEngine(tr)
	r1 := e1.BeginRound()
	r1.Send(vs[0], vs[2], TagData, make([]uint64, 5))
	s1 := r1.Finish()
	e2 := NewEngine(tr)
	r2 := e2.BeginRound()
	r2.Multicast(vs[0], []topology.NodeID{vs[2]}, TagData, make([]uint64, 5))
	s2 := r2.Finish()
	if !reflect.DeepEqual(s1.EdgeElems, s2.EdgeElems) {
		t.Errorf("edge traffic differs: %v vs %v", s1.EdgeElems, s2.EdgeElems)
	}
}

func TestInfiniteBandwidthIsFree(t *testing.T) {
	b := topology.NewBuilder()
	v1 := b.Compute("v1")
	v2 := b.Compute("v2")
	w := b.Router("w")
	b.Link(v1, w, math.Inf(1))
	b.Link(v2, w, math.Inf(1))
	tr := b.MustBuild()
	e := NewEngine(tr)
	rd := e.BeginRound()
	rd.Send(v1, v2, TagData, make([]uint64, 1000))
	if st := rd.Finish(); st.Cost != 0 {
		t.Errorf("cost over infinite links = %v, want 0", st.Cost)
	}
}

func TestMultiRoundAccumulation(t *testing.T) {
	tr := star(t, 1, 1)
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	for i := 0; i < 3; i++ {
		rd := e.BeginRound()
		rd.Send(vs[0], vs[1], TagData, make([]uint64, 4))
		rd.Finish()
	}
	rep := e.Report()
	if rep.NumRounds() != 3 {
		t.Fatalf("rounds = %d, want 3", rep.NumRounds())
	}
	if rep.TotalCost() != 12 {
		t.Errorf("total cost = %v, want 12", rep.TotalCost())
	}
	if rep.TotalElements() != 12 {
		t.Errorf("total elements = %v, want 12", rep.TotalElements())
	}
	tot := rep.MaxEdgeElems()
	if tot[0]+tot[1] != 24 {
		t.Errorf("per-edge totals = %v, want sum 24", tot)
	}
}

func TestInboxVisibilityAcrossRounds(t *testing.T) {
	tr := star(t, 1, 1)
	vs := tr.ComputeNodes()
	e := NewEngine(tr)

	rd := e.BeginRound()
	rd.Send(vs[0], vs[1], TagR, []uint64{1, 2, 3})
	rd.Finish()

	if got := e.Inbox(vs[1]).Messages(); len(got) != 1 || got[0].Tag != TagR {
		t.Fatalf("round-1 delivery missing: %v", got)
	}

	// Round 2: v2 forwards what it received; during the round its own inbox
	// is still readable.
	rd = e.BeginRound()
	in := e.Inbox(vs[1])
	rd.Send(vs[1], vs[0], TagS, in.At(0).Keys)
	rd.Finish()

	if got := e.Inbox(vs[0]).Messages(); len(got) != 1 || got[0].Tag != TagS || len(got[0].Keys) != 3 {
		t.Fatalf("round-2 delivery wrong: %v", got)
	}
	if got := e.Inbox(vs[1]).Messages(); len(got) != 0 {
		t.Fatalf("old inbox not cleared: %v", got)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	tr := star(t, 1, 1)
	vs := tr.ComputeNodes()
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("router sender", func() {
		e := NewEngine(tr)
		rd := e.BeginRound()
		rd.Send(tr.Root(), vs[0], TagData, nil)
	})
	expectPanic("router receiver", func() {
		e := NewEngine(tr)
		rd := e.BeginRound()
		rd.Send(vs[0], tr.Root(), TagData, nil)
	})
	expectPanic("double finish", func() {
		e := NewEngine(tr)
		rd := e.BeginRound()
		rd.Finish()
		rd.Finish()
	})
	expectPanic("nested round", func() {
		e := NewEngine(tr)
		e.BeginRound()
		e.BeginRound()
	})
	expectPanic("send after finish", func() {
		e := NewEngine(tr)
		rd := e.BeginRound()
		rd.Finish()
		rd.Send(vs[0], vs[1], TagData, nil)
	})
}

// TestParallelDeterminism: a plan forked across the pool yields the same
// report on every run and at every worker count.
func TestParallelDeterminism(t *testing.T) {
	tr, err := topology.Random(rand.New(rand.NewSource(11)), 12, 4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Report {
		e := NewEngine(tr, WithWorkers(workers))
		x := e.Exchange()
		x.Plan(func(v topology.NodeID, out *Outbox) {
			// Every node sends fixed amounts to a few peers based on its id.
			peers := tr.ComputeNodes()
			for i := 0; i < 3; i++ {
				d := peers[(int(v)+i*7)%len(peers)]
				out.Send(d, TagData, make([]uint64, int(v)+i))
			}
		})
		x.Execute()
		return e.Report()
	}
	want := run(1)
	for _, workers := range []int{4, 4, 8} {
		if got := run(workers); !reflect.DeepEqual(got.Rounds, want.Rounds) {
			t.Errorf("workers=%d: parallel planning is not deterministic", workers)
		}
	}
}

func TestParallelMergesInNodeOrder(t *testing.T) {
	tr := star(t, 1, 1, 1, 1)
	vs := tr.ComputeNodes()
	e := NewEngine(tr, WithWorkers(4))
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *Outbox) {
		out.Send(vs[0], TagData, []uint64{uint64(v)})
	})
	x.Execute()
	in := e.Inbox(vs[0]).Messages()
	if len(in) != len(vs) {
		t.Fatalf("inbox size %d, want %d", len(in), len(vs))
	}
	for i := 1; i < len(in); i++ {
		if in[i-1].From >= in[i].From {
			t.Fatalf("inbox not in node order: %v then %v", in[i-1].From, in[i].From)
		}
	}
}

func TestParallelMulticast(t *testing.T) {
	tr := star(t, 1, 1, 1)
	vs := tr.ComputeNodes()
	e := NewEngine(tr, WithWorkers(4))
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *Outbox) {
		if v == vs[0] {
			out.Multicast([]topology.NodeID{vs[1], vs[2]}, TagData, []uint64{9})
		}
	})
	st := x.Execute()
	if st.Messages != 2 {
		t.Errorf("messages = %d, want 2", st.Messages)
	}
	if e.Inbox(vs[1]).Len() != 1 || e.Inbox(vs[2]).Len() != 1 {
		t.Error("multicast deliveries missing")
	}
}

func TestRatio(t *testing.T) {
	cases := []struct {
		measured, bound, want float64
	}{
		{10, 5, 2},
		{0, 0, 1},
		{5, 0, math.Inf(1)},
		{0, 5, 0},
	}
	for _, c := range cases {
		if got := Ratio(c.measured, c.bound); got != c.want {
			t.Errorf("Ratio(%v, %v) = %v, want %v", c.measured, c.bound, got, c.want)
		}
	}
}

func TestReportString(t *testing.T) {
	tr := star(t, 1, 1)
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	rd := e.BeginRound()
	rd.Send(vs[0], vs[1], TagData, []uint64{1})
	rd.Finish()
	if s := e.Report().String(); s == "" {
		t.Error("empty report string")
	}
}
