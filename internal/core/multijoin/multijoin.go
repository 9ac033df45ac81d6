// Package multijoin implements topology-aware multiway joins on symmetric
// trees: a HyperCube/Shares-style shuffle ("HyperCube-on-a-tree") executed
// on the netsim exchange-plan runtime.
//
// The classic HyperCube algorithm (Afrati–Ullman; Beame–Koutris–Suciu)
// arranges the p servers in a share grid g_1 × … × g_d, one grid cell per
// server, and hashes every input tuple to the axis-aligned slab of cells
// that could produce output with it. On a flat network every cell is as
// good as any other; on a tree, a cell placed behind a weak uplink pulls
// its whole slab of replicated input across that link. The topology-aware
// variant here therefore decouples cells from servers: the grid cells are
// apportioned across the compute nodes proportionally to each node's
// bandwidth capacity into the rest of the tree (place.Capacities), assigned
// contiguously along the tree's preorder so that neighboring cells share
// subtrees and multicast slabs route along small Steiner trees. Nodes
// behind weak links own few (or zero) cells and only their own input ever
// crosses the weak edge. The flat-HyperCube baseline runs the identical
// protocol with uniform cell weights in compute-node order.
//
// Two query shapes are provided, each aware + flat:
//
//   - Triangle: R(a,b) ⋈ S(b,c) ⋈ T(c,a), shares g_a × g_b × g_c ≤ p,
//     every tuple multicast along its free dimension (Triangle /
//     TriangleFlat);
//   - k-way star: R_1(a,b_1) ⋈ … ⋈ R_k(a,b_k) on the shared attribute a —
//     the HyperCube share vector degenerates to (p, 1, …, 1), i.e. a hash
//     partition of a, weighted by capacity in the aware variant (Star /
//     StarFlat).
//
// A sender numbers its tuples by target (star) or slab (triangle) and hands
// them to place.Scatter, the one keyed scatter, which sends one message
// per group in first-seen order. Local compute is sort-merge on the par
// kernels, forked by home: a home drains each relation once, radix-sorts
// it and walks the sorted runs.
//
// All routing cost is accounted by the Exchange engine's LCA
// tree-difference counting (topology.PathAccumulator); multicast slabs are
// charged along their Steiner trees exactly as the paper's model demands.
// No optimality theorem is claimed — topology-aware multiway joins are
// open — but every run is verified against a reference computation and
// measured against the tuple-transfer cut bound lowerbound.Multijoin.
package multijoin

import (
	"fmt"
	"unsafe"

	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Tuple is one two-attribute relation row. For the triangle shape the
// attributes are the two join attributes of the relation (R: (a,b),
// S: (b,c), T: (c,a)); for the star shape A is the shared join attribute
// and B an opaque payload.
type Tuple struct {
	A, B uint64
}

// Placement is the initial tuples per compute node, in ComputeNodes order.
type Placement [][]Tuple

// Triple is one triangle output row.
type Triple struct {
	A, B, C uint64
}

// SampleLimit bounds the per-node output sample kept for verification.
const SampleLimit = 64

// Result of a multiway-join protocol.
type Result struct {
	// PerNode is the number of output rows each node emits (outputs are
	// enumerated and counted, not materialized).
	PerNode []int64
	// Checksum is an order-independent fingerprint of the emitted output
	// bag (Σ sig(row)·multiplicity, wrapping); references compute the same
	// quantity so count collisions are caught without materializing.
	Checksum uint64
	// Sample holds up to SampleLimit actual output triples per node
	// (triangle shape only).
	Sample [][]Triple
	// Shares is the share grid used (triangle: [g_a, g_b, g_c]; star:
	// [cells]).
	Shares []int
	// CellsPerNode is the number of grid cells owned by each compute node.
	CellsPerNode []int
	// Report is the cost accounting.
	Report *netsim.Report
}

// TotalOutputs sums the per-node emitted output counts.
func (r *Result) TotalOutputs() int64 {
	var n int64
	for _, c := range r.PerNode {
		n += c
	}
	return n
}

// BalancedShares picks an integer share vector of the given dimension with
// product at most p, as balanced as possible: starting from all ones it
// repeatedly increments the smallest share that still fits within p. The
// result is deterministic.
func BalancedShares(p, dims int) []int {
	g := make([]int, dims)
	for i := range g {
		g[i] = 1
	}
	if p < 1 {
		return g
	}
	for {
		prod := 1
		for _, v := range g {
			prod *= v
		}
		// Smallest incrementable share first; ties broken by index for
		// determinism.
		best := -1
		for i, v := range g {
			if prod/v*(v+1) <= p && (best < 0 || v < g[best]) {
				best = i
			}
		}
		if best < 0 {
			return g
		}
		g[best]++
	}
}

// words views a fragment as its wire rows without copying: a Tuple is the
// two words (A, B), so the fragment is 2·len(frag) words.
func words(frag []Tuple) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(frag))), 2*len(frag))
}

// tripleSig fingerprints one output triple; the order of mixing makes the
// signature attribute-position sensitive.
func tripleSig(a, b, c uint64) uint64 {
	return hashing.Mix64(a + hashing.Mix64(b+hashing.Mix64(c)))
}

func checkPlacement(t *topology.Tree, name string, p Placement) error {
	if len(p) != t.NumCompute() {
		return fmt.Errorf("multijoin: %s placement covers %d nodes, tree has %d compute nodes",
			name, len(p), t.NumCompute())
	}
	return nil
}
