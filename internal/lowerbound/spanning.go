package lowerbound

import (
	"topompc/internal/topology"
)

// Spanning is the per-cut bound of every task in which a set of nodes must
// come to agree on one item: a group-by total (aggregate.GroupHolders), a
// connected component's label (graph.ComponentSpread) or a vertex's
// (graph.ReferenceSpread).
//
// occupants[g] lists the nodes holding input of item g. Fix a tree edge e.
// Every group with occupants on both sides of the cut forces at least one
// element across e, since partial aggregates of different groups cannot
// merge; for a connectivity item the scope is narrower (below). An item spans the cut at e exactly when e lies on a
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
// the model where a partial aggregate is one element; for connectivity its
// scope is narrower, as follows.
//
// Connectivity reports the vertex term (graph.ReferenceSpread): one unit
// per vertex whose incident edges are held on both sides of e. It
// dominates the component term (graph.Ref.Spread, one unit per component
// whose holders straddle e, so one giant component charges 1/w_e) on
// every edge: a connected component held on both sides of e has a vertex
// with incident edges held on both sides, and different components give
// different vertices. With constant 1 the vertex term is
//
//   - a cost floor for the connectivity tasks (graph.CC, CCFlat and
//     SpanningForest, whose wire carries one id per word). The
//     contraction's phase 1 names every vertex at every holder of it — as
//     the label of a proposal, or as a vertex entry when only self-loops
//     name it there — and the name travels towards the vertex's one home.
//     A vertex held on both sides of e is therefore named across e at
//     least once, one label word, and the cost Σ_i max_e |Y_i(e)|/w_e is at
//     least max_e Σ_i |Y_i(e)|/w_e. The gather that CC and SpanningForest
//     weigh against the contraction sends every edge to one node g: a
//     vertex held on both sides of e has an incident edge held on g's far
//     side, which crosses e, and one edge, 2 words, covers at most its two
//     ends, so at least as many words as such vertices cross e.
//   - a lower bound for every algorithm only as a worst case over
//     placements with the same per-cut statistics, not per instance: two
//     nodes holding the same duplicate edge can both label it without
//     talking. Restricted to instances whose only vertices with edges on
//     both sides of e are s shared ones, each edge held once, the two sides
//     must decide the connectivity of the union of their graphs, which
//     takes Ω(s log s) bits (Hajnal, Maass and Turán, STOC 1988): Ω(s)
//     words of O(log n) bits once s ≥ n^ε. That constant is not stated,
//     and the component term, the weaker one, is no instance lower bound
//     either.
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

// Connectivity is Spanning's component term under its own name:
// occupants[c] lists the compute nodes holding input edges of connected
// component c. The Cluster's graph pipeline reports the vertex term,
// which dominates it.
func Connectivity(t *topology.Tree, occupants [][]topology.NodeID) Bound {
	return Spanning(t, occupants)
}
