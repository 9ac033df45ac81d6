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
