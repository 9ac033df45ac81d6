package lowerbound

import (
	"math"

	"topompc/internal/topology"
)

// Multijoin is a cut-based lower bound for multiway joins (triangle, star,
// …) in the tuple-transfer model: the model in which an output row is
// emitted by a node that physically received every one of its constituent
// input tuples — exactly what every protocol executing on the netsim
// engine does. (Bit-level encoding tricks are out of scope; no
// communication-complexity theorem is claimed.)
//
// Fix an edge e splitting the tree into sides V−e and V+e. Call an output
// row *mixed* for e when its constituent tuples do not all originate on
// one side:
//
//	mixed(e) = |out| − |out within V−e| − |out within V+e|
//
// Whichever side a mixed row is emitted on, at least one of its
// constituent tuples crossed e. A single crossed tuple can serve every
// mixed row it participates in, but no more than dmax of them — the
// maximum participation degree over all input tuples — so
//
//	|Y(e)| ≥ ⌈mixed(e) / dmax⌉
//
// and the protocol cost is at least
//
//	CLB = max_e ⌈mixed(e)/dmax⌉ / w_e.
//
// The per-side "within" counts are instance quantities; the multijoin
// package computes them for all edges in one topology.CutSweep
// (TriangleIndex.CutCounts, StarIndex.CutCounts) and dmax with its
// reference evaluation, so within is a table lookup and the bound costs
// O(N log N + V) for N indexed input holders on a V-node tree. A zero
// total output (or unknown dmax ≤ 0) yields a zero bound: PerEdge is all
// zero and Edge is NoEdge, as for every Bound no edge term binds.
func Multijoin(t *topology.Tree, totalOut, dmax int64, within func(e topology.EdgeID) (below, above int64)) Bound {
	if totalOut <= 0 || dmax <= 0 {
		return Bound{PerEdge: make([]float64, t.NumEdges()), Edge: topology.NoEdge}
	}
	return maxOverEdges(t, func(e topology.EdgeID) float64 {
		below, above := within(e)
		mixed := totalOut - below - above
		if mixed <= 0 {
			return 0
		}
		return math.Ceil(float64(mixed)/float64(dmax)) / t.Bandwidth(e)
	})
}
