package topology

import (
	"fmt"
	"math"
)

// NodeMap records how node identities moved across a normalization: OldToNew
// maps every original node to its image (compute nodes map to the node that
// now holds their data).
type NodeMap struct {
	OldToNew []NodeID
}

// EnsureComputeLeaves applies the first w.l.o.g. transformation of §2.1:
// every internal (non-leaf) compute node v is demoted to a router and a new
// compute leaf v' is attached to it with an infinite-bandwidth link, so that
// data conceptually stored "at" v now lives one free hop away. The cost of
// every algorithm is unchanged because the new link never bottlenecks.
//
// Trees whose compute nodes are already leaves are returned unchanged (with
// an identity NodeMap).
func EnsureComputeLeaves(t *Tree) (*Tree, NodeMap) {
	internal := 0
	for _, v := range t.ComputeNodes() {
		if t.Degree(v) > 1 {
			internal++
		}
	}
	m := NodeMap{OldToNew: make([]NodeID, t.NumNodes())}
	for v := range m.OldToNew {
		m.OldToNew[v] = NodeID(v)
	}
	if internal == 0 {
		return t, m
	}
	b := NewBuilder()
	for v := NodeID(0); int(v) < t.NumNodes(); v++ {
		if t.IsCompute(v) && t.Degree(v) > 1 {
			b.Router(t.Name(v))
		} else if t.IsCompute(v) {
			b.Compute(t.Name(v))
		} else {
			b.Router(t.Name(v))
		}
	}
	for e := EdgeID(0); int(e) < t.NumEdges(); e++ {
		u, v := t.Endpoints(e)
		b.Link(u, v, t.Bandwidth(e))
	}
	for v := NodeID(0); int(v) < t.NumNodes(); v++ {
		if t.IsCompute(v) && t.Degree(v) > 1 {
			leaf := b.Compute(t.Name(v) + "'")
			b.Link(v, leaf, math.Inf(1))
			m.OldToNew[v] = leaf
		}
	}
	nt, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("topology: EnsureComputeLeaves produced invalid tree: %v", err))
	}
	return nt, m
}
