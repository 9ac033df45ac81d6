package intersect

import (
	"fmt"

	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Star runs StarIntersect (Algorithm 1) on a star topology. Nodes are
// split into V_α (those with min{N_v, N−N_v} < |R|) and V_β; the shared
// hash sends a key to v ∈ V_α with probability N_v/N′ and to v ∈ V_β with
// probability |R_v|/N′, where N′ = |R| + Σ_{v∈V_α} |S_v|. Every R-tuple is
// multicast to all of V_β plus its hash target; S-tuples of V_α nodes go to
// their hash target while S-tuples of V_β nodes stay put and meet the full
// copy of R locally.
//
// Lemma 1: the cost is within O(log N · log |V|) of optimal w.h.p.
func Star(t *topology.Tree, r, s dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	if !t.IsStar() {
		return nil, fmt.Errorf("intersect: not a star topology")
	}
	in, err := newInstance(t, r, s)
	if err != nil {
		return nil, err
	}
	if in.size0 == 0 {
		return in.emptyResult(), nil
	}
	n := in.loads.Total()

	// Partition nodes into V_α and V_β (line 1 of Algorithm 1), and weigh
	// the hash over all compute nodes: N_v for α-nodes, |R_v| for β-nodes
	// (normalization to N′ is implicit in the chooser).
	var beta []topology.NodeID
	isBeta := make([]bool, len(in.nodes)) // by compute index
	weights := make([]float64, len(in.nodes))
	for i, v := range in.nodes {
		weights[i] = float64(in.loads[v])
		if min(in.loads[v], n-in.loads[v]) >= in.size0 {
			beta = append(beta, v)
			isBeta[i] = true
			weights[i] = float64(len(in.rel0[i]))
		}
	}
	router, err := place.NewFlatRouter(t, weights, seed, 0x5151)
	if err != nil {
		return nil, fmt.Errorf("intersect: %w", err)
	}
	h := router.Chooser(0)

	e := netsim.NewEngine(t, opts...)
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := t.ComputeIndex(v)
		// R-tuples: multicast each to V_β ∪ {h(a)}, one multicast per hash
		// target in node order: the V_β part of the destination set is
		// shared.
		target := make([]int32, len(in.rel0[i]))
		for j, k := range in.rel0[i] {
			target[j] = int32(h.Choose(k))
		}
		dsts := append(make([]topology.NodeID, 0, len(beta)+1), beta...) // V_β, with room for h(a)
		place.Scatter(out, netsim.TagR, in.rel0[i], 1, target, len(in.nodes), place.Targets{
			Vector: func(m int, _ []uint64) []topology.NodeID {
				if isBeta[m] {
					return dsts
				}
				return append(dsts, in.nodes[m])
			}})
		// S-tuples: only α-nodes rehash theirs (line 4-5).
		if !isBeta[i] {
			router.Hash(out, netsim.TagS, i, in.rel1[i], 1)
		}
	})
	x.Execute()

	// β-nodes keep their S fragment locally; feed it into the final
	// intersection as extra S data.
	return finish(e, in, func(i int) []uint64 {
		if isBeta[i] {
			return in.rel1[i]
		}
		return nil
	}), nil
}
