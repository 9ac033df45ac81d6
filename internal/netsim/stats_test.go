package netsim

import (
	"testing"

	"topompc/internal/topology"
)

func TestNodeTrafficAccounting(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	rd := e.BeginRound()
	rd.Send(vs[0], vs[1], TagData, make([]uint64, 10))
	rd.Send(vs[0], vs[0], TagData, make([]uint64, 99)) // self-send: free
	rd.Multicast(vs[2], []topology.NodeID{vs[0], vs[1]}, TagData, make([]uint64, 5))
	st := rd.Finish()

	if got := st.NodeSent[vs[0]]; got != 10 {
		t.Errorf("v1 sent %d, want 10 (self-send free)", got)
	}
	if got := st.NodeSent[vs[2]]; got != 5 {
		t.Errorf("v3 sent %d, want 5 (multicast emits one copy)", got)
	}
	if got := st.NodeReceived[vs[1]]; got != 15 {
		t.Errorf("v2 received %d, want 15", got)
	}
	if got := st.NodeReceived[vs[0]]; got != 5 {
		t.Errorf("v1 received %d, want 5 (self-send excluded)", got)
	}
}

func TestMPCCost(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	rd := e.BeginRound()
	rd.Send(vs[0], vs[1], TagData, make([]uint64, 10))
	rd.Send(vs[2], vs[1], TagData, make([]uint64, 7))
	rd.Finish()
	rd = e.BeginRound()
	rd.Send(vs[1], vs[0], TagData, make([]uint64, 3))
	rd.Finish()
	rep := e.Report()
	// Round 1 max received = 17 (node v2), round 2 max = 3.
	if got := rep.MPCCost(); got != 20 {
		t.Errorf("MPC cost = %v, want 20", got)
	}
	sent, recv := rep.SentTotals, rep.RecvTotals
	if sent[vs[0]] != 10 || sent[vs[1]] != 3 || sent[vs[2]] != 7 {
		t.Errorf("sent totals = %v", sent)
	}
	if recv[vs[1]] != 17 || recv[vs[0]] != 3 {
		t.Errorf("received totals = %v", recv)
	}
}

func TestMPCCostEmptyReport(t *testing.T) {
	tr, _ := topology.UniformStar(2, 1)
	rep := NewEngine(tr).Report()
	if rep.MPCCost() != 0 {
		t.Error("empty report should have zero MPC cost")
	}
	for _, totals := range [][]int64{rep.EdgeTotals, rep.SentTotals, rep.RecvTotals} {
		for _, n := range totals {
			if n != 0 {
				t.Fatalf("empty report has non-zero totals: %v %v %v", rep.EdgeTotals, rep.SentTotals, rep.RecvTotals)
			}
		}
	}
	if len(rep.EdgeTotals) != tr.NumEdges() || len(rep.SentTotals) != tr.NumNodes() || len(rep.RecvTotals) != tr.NumNodes() {
		t.Fatalf("empty report's totals cover %d edges and %d, %d nodes; want %d and %d",
			len(rep.EdgeTotals), len(rep.SentTotals), len(rep.RecvTotals), tr.NumEdges(), tr.NumNodes())
	}
}

func TestMulticastDuplicateDestinations(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	rd := e.BeginRound()
	rd.Multicast(vs[0], []topology.NodeID{vs[1], vs[1], vs[1]}, TagData, make([]uint64, 4))
	st := rd.Finish()
	if got := e.Inbox(vs[1]).Len(); got != 1 {
		t.Errorf("duplicate destinations delivered %d times, want 1", got)
	}
	if st.Elements != 4 {
		t.Errorf("elements = %d, want 4", st.Elements)
	}
}

func TestEdgeTable(t *testing.T) {
	tr, err := topology.Star([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	rd := e.BeginRound()
	rd.Send(vs[0], vs[1], TagData, make([]uint64, 10))
	rd.Finish()
	table := e.Report().EdgeTable()
	if table == "" || table == "(no rounds)\n" {
		t.Fatalf("edge table missing: %q", table)
	}
	empty := NewEngine(tr).Report().EdgeTable()
	if empty != "(no rounds)\n" {
		t.Errorf("empty report table = %q", empty)
	}
}
