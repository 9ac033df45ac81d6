package intersect

import (
	"fmt"

	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/hashing"
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
	if err := requireStar(t); err != nil {
		return nil, err
	}
	in, err := newInstance(t, r, s)
	if err != nil {
		return nil, err
	}
	if in.size0 == 0 {
		return in.emptyResult(), nil
	}
	n := in.loads.Total()

	// Partition nodes into V_α and V_β (line 1 of Algorithm 1).
	var beta []topology.NodeID
	isBeta := make([]bool, len(in.nodes)) // by compute index
	for i, v := range in.nodes {
		if min(in.loads[v], n-in.loads[v]) >= in.size0 {
			beta = append(beta, v)
			isBeta[i] = true
		}
	}

	// Weighted hash over all compute nodes: N_v for α-nodes, |R_v| for
	// β-nodes (normalization to N′ is implicit in the chooser).
	weights := make([]float64, len(in.nodes))
	for i, v := range in.nodes {
		if isBeta[i] {
			weights[i] = float64(len(in.rel0[i]))
		} else {
			weights[i] = float64(in.loads[v])
		}
	}
	chooser, err := hashing.NewWeightedChooser(hashing.Mix64(seed+0x5151), place.FallbackUniform(weights))
	if err != nil {
		return nil, fmt.Errorf("intersect: %w", err)
	}

	e := netsim.NewEngine(t, opts...)
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := t.ComputeIndex(v)
		// R-tuples: multicast each to V_β ∪ {h(a)}, one multicast per hash
		// target in node order: the V_β part of the destination set is
		// shared.
		target := make([]int32, len(in.rel0[i]))
		for j, k := range in.rel0[i] {
			target[j] = int32(chooser.Choose(k))
		}
		buf, off := layOut(in.rel0[i], target, len(in.nodes))
		dsts := append(make([]topology.NodeID, 0, len(beta)+1), beta...) // V_β, with room for h(a)
		for m, to := range in.nodes {
			if off[m] == off[m+1] {
				continue
			}
			if isBeta[m] {
				out.Multicast(dsts, netsim.TagR, buf[off[m]:off[m+1]])
			} else {
				out.Multicast(append(dsts, to), netsim.TagR, buf[off[m]:off[m+1]])
			}
		}
		// S-tuples: only α-nodes rehash theirs (line 4-5).
		if !isBeta[i] {
			sendHashed(out, in.rel1[i], in.nodes, chooser, netsim.TagS)
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

func requireStar(t *topology.Tree) error {
	center := t.Root()
	if t.IsCompute(center) {
		return fmt.Errorf("intersect: not a star topology (no central router)")
	}
	for _, v := range t.ComputeNodes() {
		if t.Degree(v) != 1 {
			return fmt.Errorf("intersect: not a star topology (compute node %v is internal)", v)
		}
		p, _ := t.Parent(v)
		if p != center {
			return fmt.Errorf("intersect: not a star topology (node %v not adjacent to center)", v)
		}
	}
	if t.NumNodes() != t.NumCompute()+1 {
		return fmt.Errorf("intersect: not a star topology (extra routers)")
	}
	return nil
}
