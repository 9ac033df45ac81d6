// Package lowerbound computes the instance-specific lower bounds of the
// paper (Theorems 1, 3, 4 and 6) for a given symmetric tree topology and
// initial data distribution.
//
// All bounds are reported in elements (tuples). Theorem 1 is stated in bits
// in the paper — the missing log N factor is exactly the per-element
// encoding cost, so element-valued ratios measured against these bounds
// absorb it; Theorems 3, 4 and 6 are stated in tuples already.
//
// Each bound carries its per-edge breakdown so experiments can report which
// link is the binding bottleneck.
//
// Every bound has the shape max_e stat(e)/w_e, and every stat(e) for all
// edges comes from one bottom-up sweep over the rooted tree, never from a
// pass over the input per edge: the paper's bounds sum loads per subtree
// (Tree.Cuts); Spanning counts the items whose holders' Steiner tree
// contains e (PathAccumulator.AddSteiner); Multijoin's "within" counts sum
// products of per-relation subtree counts (CutSweep). The last two rest on
// the same argument: the part of one item's holders under ChildEnd(e)
// changes only at the nodes of the holders' virtual tree (the holders
// closed under LCA, built in O(h log h) by a stack walk over the holders
// in tour order), so the item's statistic is constant along each
// compressed chain of real edges between two virtual nodes; adding it at
// the chain's lower end and subtracting it at the upper end in a
// node-difference array lets one reverse-preorder subtree-sum produce
// stat(e) for every edge. Total: O(N log N + V) for N holders on a V-node
// tree.
package lowerbound

import (
	"math"

	"topompc/internal/topology"
)

// Bound is a lower bound value together with its per-edge breakdown.
type Bound struct {
	// Value is the bound: the maximum of PerEdge (or a cover term).
	Value float64
	// PerEdge is the contribution of each edge, indexed by EdgeID.
	PerEdge []float64
	// Edge is the edge achieving Value, or NoEdge when the binding term is
	// not an edge term (Theorem 4's cover term).
	Edge topology.EdgeID
}

func maxOverEdges(t *topology.Tree, term func(e topology.EdgeID) float64) Bound {
	b := Bound{PerEdge: make([]float64, t.NumEdges()), Edge: topology.NoEdge}
	for e := topology.EdgeID(0); int(e) < t.NumEdges(); e++ {
		v := term(e)
		b.PerEdge[e] = v
		if v > b.Value {
			b.Value = v
			b.Edge = e
		}
	}
	return b
}

// Intersection is the Theorem 1 lower bound for computing R ∩ S:
//
//	CLB = max_e (1/w_e) · min{|R|, |S|, Σ_{v∈V−e} N_v, Σ_{v∈V+e} N_v}
//
// where loads holds N_v = |R_v| + |S_v| per node.
func Intersection(t *topology.Tree, loads topology.Loads, sizeR, sizeS int64) Bound {
	cuts := t.Cuts(loads)
	small := sizeR
	if sizeS < small {
		small = sizeS
	}
	return maxOverEdges(t, func(e topology.EdgeID) float64 {
		m := cuts[e].Min()
		if small < m {
			m = small
		}
		return float64(m) / t.Bandwidth(e)
	})
}

// CartesianCut is the Theorem 3 lower bound for computing R × S:
//
//	CLB = max_e (1/w_e) · min{Σ_{v∈V−e} N_v, Σ_{v∈V+e} N_v}
//
// with loads holding N_v per node.
func CartesianCut(t *topology.Tree, loads topology.Loads) Bound {
	cuts := t.Cuts(loads)
	return maxOverEdges(t, func(e topology.EdgeID) float64 {
		return float64(cuts[e].Min()) / t.Bandwidth(e)
	})
}

// CartesianCover is the Theorem 4 cover lower bound in its instance-valid
// form. For a minimal cover U ≠ {r} of G† the covered subtrees are
// disjoint and each touches the rest of the network only through its
// cover node's outgoing edge, so in time C the subtree under u ∈ U holds
// at most L_u + C·w_u elements (initial load plus received) and can
// enumerate at most ((L_u + C·w_u)/2)² output pairs. Covering the
// |R|·|S| = (N/2)² output grid therefore requires
//
//	Σ_{u∈U} (L_u + C·w_u)²  ≥  N²,
//
// whose smallest root C is the bound (0 when the initial loads already
// cover the grid). The cover is the minimum-Σw² one of Algorithm 5 —
// the maximizer of the paper's load-free form N/sqrt(Σ w_u²), which that
// form equals when all L_u are 0; keeping the L_u terms is what makes the
// bound valid for arbitrary initial distributions, where cover subtrees
// may already hold data. Assumes |R| = |S| = N/2 with loads N_v summing
// both relations (the §4.4 equal-size setting).
//
// ok is false when the G† root is a compute node; in that case Theorem 4
// does not apply (and the gather-to-root strategy already matches
// Theorem 3).
func CartesianCover(t *topology.Tree, loads topology.Loads) (clb float64, cover []topology.NodeID, ok bool) {
	d := topology.Orient(t, loads)
	cover, wTilde, ok := d.MinCoverSumSq()
	if !ok {
		return 0, nil, false
	}
	if wTilde == 0 || math.IsInf(wTilde, 1) {
		// All cover edges have infinite bandwidth: the bound degenerates.
		return 0, cover, true
	}
	n := float64(loads.Total())
	// Per-node G† subtree load sums in one bottom-up sweep, then the
	// squared terms of the quadratic C²·Σw² + 2C·ΣLw + ΣL² − N² = 0.
	subLoad := make([]int64, t.NumNodes())
	for _, v := range d.PostOrder() {
		subLoad[v] += loads[v]
		if p := d.Parent(v); p != topology.NoNode {
			subLoad[p] += subLoad[v]
		}
	}
	var sumW2, sumLW, sumL2 float64
	for _, u := range cover {
		load := float64(subLoad[u])
		w := d.OutBandwidth(u)
		sumW2 += w * w
		sumLW += load * w
		sumL2 += load * load
	}
	if sumL2 >= n*n {
		return 0, cover, true
	}
	clb = (-sumLW + math.Sqrt(sumLW*sumLW+sumW2*(n*n-sumL2))) / sumW2
	return clb, cover, true
}

// Cartesian combines Theorems 3 and 4: the larger of the cut bound and —
// when it applies — the cover bound. The returned Bound keeps the per-edge
// breakdown of the cut bound; Edge is NoEdge when the cover term binds.
func Cartesian(t *topology.Tree, loads topology.Loads) Bound {
	b := CartesianCut(t, loads)
	if coverLB, _, ok := CartesianCover(t, loads); ok && coverLB > b.Value {
		b.Value = coverLB
		b.Edge = topology.NoEdge
	}
	return b
}

// Sorting is the Theorem 6 lower bound for sorting a set R:
//
//	CLB = max_e (1/w_e) · min{Σ_{v∈V−e} N_v, Σ_{v∈V+e} N_v}
//
// It has the same per-edge form as Theorem 3, realized by the adversarial
// rank-interleaved initial distribution (Figure 5, built by
// dataset.AdversarialSortPlacement).
func Sorting(t *topology.Tree, loads topology.Loads) Bound {
	return CartesianCut(t, loads)
}

// UnequalCartesianCut is the first lower bound of §4.5 for R × S with
// |R| ≤ |S| on arbitrary symmetric trees:
//
//	CLB = max_e (1/w_e) · min{Σ_{V−e} N_v, Σ_{V+e} N_v, |R|}
func UnequalCartesianCut(t *topology.Tree, loads topology.Loads, sizeR int64) Bound {
	cuts := t.Cuts(loads)
	return maxOverEdges(t, func(e topology.EdgeID) float64 {
		m := cuts[e].Min()
		if sizeR < m {
			m = sizeR
		}
		return float64(m) / t.Bandwidth(e)
	})
}

// CoverageNumber solves the V(R, S, VC) minimizer of Theorem 9 (Appendix
// A.1) on a star: the smallest C such that
//
//	Σ_v min(C·w_v, |R|) · (C·w_v)  ≥  |R| · |S|
//
// by binary search; it is the output-coverage component of the unequal-size
// star lower bound and the scale L* used by the generalized wHC algorithm.
func CoverageNumber(weights []float64, sizeR, sizeS int64) float64 {
	if sizeR == 0 || sizeS == 0 {
		return 0
	}
	need := float64(sizeR) * float64(sizeS)
	covered := func(c float64) float64 {
		var area float64
		for _, w := range weights {
			side := c * w
			r := side
			if float64(sizeR) < r {
				r = float64(sizeR)
			}
			area += r * side
		}
		return area
	}
	lo, hi := 0.0, 1.0
	for covered(hi) < need {
		hi *= 2
		if math.IsInf(hi, 1) {
			return math.Inf(1)
		}
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if covered(mid) >= need {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
