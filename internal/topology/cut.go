package topology

import "fmt"

// Loads assigns a non-negative data size to every node (routers must be 0).
// Indexed by NodeID.
type Loads []int64

// ComputeLoads builds a Loads vector from per-compute-node sizes listed in
// ComputeNodes() order.
func (t *Tree) ComputeLoads(sizes []int64) (Loads, error) {
	if len(sizes) != t.NumCompute() {
		return nil, fmt.Errorf("topology: %d sizes for %d compute nodes", len(sizes), t.NumCompute())
	}
	l := make(Loads, t.NumNodes())
	for i, v := range t.computeList {
		if sizes[i] < 0 {
			return nil, fmt.Errorf("topology: negative load %d at node %v", sizes[i], v)
		}
		l[v] = sizes[i]
	}
	return l, nil
}

// Total reports the sum of all loads.
func (l Loads) Total() int64 {
	var s int64
	for _, x := range l {
		s += x
	}
	return s
}

// Cut describes the load split induced by removing one edge: Below is the
// total load in the subtree under e's child end (the paper's V−e or V+e,
// whichever side that is) and Above is the rest. CutSweep reports the join
// rows derivable on each side in the same shape.
type Cut struct {
	Below int64
	Above int64
}

// Min reports min(Below, Above), the quantity min{Σ_{V−e} N_v, Σ_{V+e} N_v}
// appearing in every lower bound of the paper.
func (c Cut) Min() int64 {
	if c.Below < c.Above {
		return c.Below
	}
	return c.Above
}

// Cuts computes the load split for every edge in one post-order pass.
// The result is indexed by EdgeID.
func (t *Tree) Cuts(loads Loads) []Cut {
	if len(loads) != t.NumNodes() {
		panic(fmt.Sprintf("topology: loads has %d entries for %d nodes", len(loads), t.NumNodes()))
	}
	sub := make([]int64, t.NumNodes())
	for _, v := range t.preorder {
		sub[v] = loads[v]
	}
	// Children accumulate into parents in reverse preorder.
	for i := len(t.preorder) - 1; i >= 1; i-- {
		v := t.preorder[i]
		sub[t.parent[v]] += sub[v]
	}
	total := sub[t.root]
	cuts := make([]Cut, t.NumEdges())
	for e := range cuts {
		below := sub[t.childEnd[e]]
		cuts[e] = Cut{Below: below, Above: total - below}
	}
	return cuts
}

// CutComputeSets reports, for each edge, the compute nodes on the child side
// of the cut. Intended for tests and diagnostics (it allocates heavily).
func (t *Tree) CutComputeSets() [][]NodeID {
	sets := make([][]NodeID, t.NumEdges())
	for e := EdgeID(0); int(e) < t.NumEdges(); e++ {
		for _, v := range t.computeList {
			if t.OnChildSide(e, v) {
				sets[e] = append(sets[e], v)
			}
		}
	}
	return sets
}
