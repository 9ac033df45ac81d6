package lowerbound

import (
	"topompc/internal/topology"
)

// Spanning is the per-cut bound of every task in which a set of nodes must
// come to agree on one item: a group-by total (aggregate.GroupHolders) or
// a connected component's label (graph.ComponentSpread).
//
// occupants[g] lists the nodes holding input of item g. Fix a tree edge e.
// Every item with occupants on both sides of the cut forces at least one
// element across e — partial aggregates of different groups cannot merge,
// and the side of a component not holding the deciding piece cannot learn
// its label silently. An item spans the cut at e exactly when e lies on a
// path between two of its occupants — that is, when e belongs to the
// Steiner tree of occupants[g] — so the bound is
//
//	CLB = max_e |{g : e ∈ Steiner(occupants[g])}| / w_e.
//
// The per-edge counts are accumulated with the same tree-difference
// machinery the exchange engine uses for multicast charging
// (topology.PathAccumulator.AddSteiner), one unit per item: O(h log h) per
// item with h occupants and one O(V) subtree-sum for all edges, never a
// pass over the occupants per edge. For aggregation the bound is exact in
// the model where a partial aggregate is one element; for connectivity it
// is an information bound in the tuple-transfer model (companion to
// Multijoin; no communication-complexity theorem is claimed).
func Spanning(t *topology.Tree, occupants [][]topology.NodeID) Bound {
	acc := topology.NewPathAccumulator(t)
	for _, nodes := range occupants {
		acc.AddSteiner(nodes, 1)
	}
	spanning := make([]int64, t.NumEdges())
	acc.FlushInto(spanning)
	return maxOverEdges(t, func(e topology.EdgeID) float64 {
		return float64(spanning[e]) / t.Bandwidth(e)
	})
}

// Connectivity is Spanning under the name the graph tasks report it by:
// occupants[c] lists the compute nodes holding input edges of connected
// component c.
func Connectivity(t *topology.Tree, occupants [][]topology.NodeID) Bound {
	return Spanning(t, occupants)
}
