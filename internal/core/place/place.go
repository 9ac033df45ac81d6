// Package place is the shared topology-aware placement-and-partitioning
// engine of the protocol layer. The paper's central lever (Hu–Koutris–
// Blanas, PODS 2021) is one idea applied everywhere: route and place work
// so that the traffic across each tree cut matches that cut's bandwidth.
// This package owns the structural primitives every protocol derives from
// that idea, so that no protocol package re-implements them ad hoc:
//
//   - Capacities — per-compute-node bandwidth capacity into the rest of
//     the tree, computed by two sweeps over the tree re-rooted at its
//     centroid and memoized on the immutable Tree. The universal weight
//     vector behind capacity-weighted hashing, cell apportioning, and
//     splitter selection.
//   - Hierarchy — the recursive weak-cut decomposition (cut tree): one
//     block level per factor-2 bandwidth band from the weakest link up to
//     half the strongest, with a per-level combining-pays test
//     (CombinePays) and a bottom-up merge schedule (UpSweep). Protocols
//     merge payloads once per block per level before crossing that
//     level's cut (graph label exchanges, combiner trees). Deepest
//     truncates it to its finest level — the connected components left
//     after removing the weak edges — for the single-level ablation.
//   - BalancedPartition — the α/β edge classification (§3.3) and the
//     load-balanced partition of Algorithm 3 / Definition 1, driven by
//     the data loads rather than the bandwidths (intersect, join,
//     two-level aggregation).
//   - BlockRouter — the routing of Algorithm 2 over such a partition: the
//     block of every node, one weighted hash per block over its members,
//     the destination vector of a key and the first-seen numbering of the
//     vectors, so that the three block-hashing protocols share one copy.
//   - Proportional — remainder-exact proportional apportioning (the §5.2
//     Algorithm 6 / Lemma 9 scheme generalized to arbitrary non-negative
//     float weights): integer counts that sum exactly to n with every
//     prefix within 1 of its exact share.
//   - AssignCells — preorder-contiguous layout of unit cells over the
//     compute nodes proportionally to arbitrary weights: contiguous runs
//     land in common subtrees, so HyperCube slabs stop spanning weak cuts.
//   - Splitters — capacity-weighted splitter selection for ordered keys:
//     key-range shares proportional to weights, so the ranges of nodes
//     behind weak cuts shrink and sorted redistribution stops flooding
//     thin uplinks.
//
// Consumers: multijoin (Capacities + AssignCells), graph (Capacities +
// Hierarchy), sorting (Proportional + Splitters + Capacities), aggregate
// (Capacities + Hierarchy + BalancedPartition + BlockRouter), intersect and join (BalancedPartition + BlockRouter). The
// package sits between internal/topology and the protocol packages and must
// not import any of them.
package place

import (
	"topompc/internal/topology"
)

// Uniform is the topology-oblivious weight vector: every node weighs 1.
func Uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// FallbackUniform returns w unchanged if any weight is positive, and the
// uniform vector of the same length otherwise. Degenerate all-zero weight
// vectors (empty placements, single-node trees) then stay usable by
// weighted choosers and apportioners.
func FallbackUniform(w []float64) []float64 {
	for _, x := range w {
		if x > 0 {
			return w
		}
	}
	return Uniform(len(w))
}

// IdentityOrder is the topology-oblivious assignment order 0..n-1.
func IdentityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// PreorderComputeIndices lists the compute indices (positions in
// ComputeNodes) in tree preorder, so contiguous assignments land in common
// subtrees.
func PreorderComputeIndices(t *topology.Tree) []int {
	order := make([]int, 0, t.NumCompute())
	for _, v := range t.Preorder() {
		if t.IsCompute(v) {
			order = append(order, t.ComputeIndex(v))
		}
	}
	return order
}
