package topology

import "math"

// A cover of G† is a set of nodes such that every compute node has an
// ancestor-or-self in the set; a minimal cover additionally admits no proper
// subset that is a cover, which forces the covered subtrees to be disjoint
// (used in the proof of Theorem 4).

// MinCoverSumSq finds, over all minimal covers U of G† with U ≠ {root},
// the one minimizing Σ_{u∈U} w_u² where w_u is the bandwidth of u's
// outgoing edge. It returns the cover and the value w̃ = sqrt(min Σ w²);
// this is exactly the quantity computed bottom-up by the first phase of
// Algorithm 5 (Lemma 8, property 3), and N / w̃ is the strongest form of the
// Theorem 4 lower bound.
//
// ok is false when no such cover exists, which happens exactly when the G†
// root is itself a compute node (then the gather-to-root strategy is
// optimal and Theorem 4 does not apply).
func (d *Directed) MinCoverSumSq() (cover []NodeID, wTilde float64, ok bool) {
	if d.RootIsCompute() {
		return nil, 0, false
	}
	type res struct {
		sumSq  float64
		picked bool // whether this subtree's cover is {v} itself
	}
	n := d.t.NumNodes()
	memo := make([]res, n)
	hasCompute := make([]bool, n)
	order := d.PostOrder()
	for _, v := range order {
		hc := d.t.IsCompute(v)
		var childSum float64
		childrenOK := true
		for _, c := range d.children[v] {
			if hasCompute[c] {
				hc = true
			}
			childSum += memo[c].sumSq
		}
		hasCompute[v] = hc
		if !hc {
			memo[v] = res{sumSq: 0, picked: false}
			continue
		}
		// Option B (do not pick v) is valid only when v itself is not a
		// compute node: an unpicked internal compute node would be uncovered.
		if d.t.IsCompute(v) {
			childrenOK = false
		}
		pickCost := math.Inf(1)
		if v != d.root {
			w := d.outBW[v]
			pickCost = w * w
		}
		if childrenOK && childSum <= pickCost {
			memo[v] = res{sumSq: childSum, picked: false}
		} else {
			memo[v] = res{sumSq: pickCost, picked: true}
		}
	}
	// Extract the chosen cover top-down.
	var collect func(v NodeID)
	collect = func(v NodeID) {
		if !hasCompute[v] {
			return
		}
		if memo[v].picked {
			cover = append(cover, v)
			return
		}
		for _, c := range d.children[v] {
			collect(c)
		}
	}
	collect(d.root)
	return cover, math.Sqrt(memo[d.root].sumSq), true
}
