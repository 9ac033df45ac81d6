package cartesian

import (
	"math"

	"topompc/internal/topology"
)

// This file computes square dimensions: the BalancedPackingTree recurrences
// of Algorithm 5. On a star they reduce to equation (1) of §4.2,
// l_v = argmin_k { 2^k ≥ w_v · N / sqrt(Σ_u w_u²) }.

// treeDims is the output of Algorithm 5 (BalancedPackingTree): per-node
// w̃ and l values and the final square side d_v for every compute node.
type treeDims struct {
	wTilde map[topology.NodeID]float64
	l      map[topology.NodeID]float64
	side   map[topology.NodeID]int64
}

// balancedPackingTree runs Algorithm 5 on G†: a bottom-up pass computing
//
//	w̃_v = w_v                                 (leaf)
//	w̃_v = min{w_v, sqrt(Σ_{u∈ζ(v)} w̃_u²)}    (internal, non-root)
//	w̃_r = sqrt(Σ_{u∈ζ(r)} w̃_u²)              (root)
//
// followed by a top-down pass
//
//	l_r = 1,  l_v = l_pv · w̃_v / sqrt(Σ_{u∈ζ(p_v)} w̃_u²)
//
// and finally d_v = argmin_k{2^k ≥ N·l_v} for compute nodes.
// Subtrees of G† that contain no compute node carry no data and host no
// squares; they are excluded from both passes so that no l-mass leaks onto
// router-only leaves (router tree-leaves never exist after the §2.1
// normalization in the paper, but arbitrary input trees may have them).
func balancedPackingTree(d *topology.Directed, n int64) *treeDims {
	t := d.Tree()
	dims := &treeDims{
		wTilde: make(map[topology.NodeID]float64, t.NumNodes()),
		l:      make(map[topology.NodeID]float64, t.NumNodes()),
		side:   make(map[topology.NodeID]int64, t.NumCompute()),
	}
	post := d.PostOrder()
	computeBelow := d.SubtreeComputeCount()
	childSumSq := make(map[topology.NodeID]float64, t.NumNodes())
	for _, v := range post {
		if computeBelow[v] == 0 {
			continue
		}
		var sum float64
		hasChild := false
		for _, c := range d.Children(v) {
			if computeBelow[c] == 0 {
				continue
			}
			hasChild = true
			wc := dims.wTilde[c]
			if math.IsInf(wc, 1) {
				sum = math.Inf(1)
			} else if !math.IsInf(sum, 1) {
				sum += wc * wc
			}
		}
		childSumSq[v] = sum
		switch {
		case v == d.Root():
			dims.wTilde[v] = math.Sqrt(sum)
		case !hasChild:
			dims.wTilde[v] = d.OutBandwidth(v)
		default:
			dims.wTilde[v] = math.Min(d.OutBandwidth(v), math.Sqrt(sum))
		}
	}
	// Top-down (pre-order): parents before children; reverse post-order.
	for i := len(post) - 1; i >= 0; i-- {
		v := post[i]
		if computeBelow[v] == 0 {
			dims.l[v] = 0
			continue
		}
		if v == d.Root() {
			dims.l[v] = 1
			continue
		}
		p := d.Parent(v)
		denom := math.Sqrt(childSumSq[p])
		var lv float64
		switch {
		case math.IsInf(dims.wTilde[v], 1):
			// Infinite-bandwidth subtree absorbs its parent's entire share.
			lv = dims.l[p]
		case denom == 0 || math.IsInf(denom, 1):
			lv = 0
		default:
			lv = dims.l[p] * dims.wTilde[v] / denom
		}
		dims.l[v] = lv
	}
	for _, v := range t.ComputeNodes() {
		dims.side[v] = nextPow2F(float64(n) * dims.l[v])
	}
	return dims
}
