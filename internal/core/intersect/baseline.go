package intersect

import (
	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// UniformHash is the topology-oblivious MPC baseline: a classic distributed
// hash join that hashes every tuple of both relations uniformly across all
// compute nodes, ignoring both the topology and the data distribution.
// Optimal in the MPC model under uniform initial distribution, it can be
// far from optimal on heterogeneous trees — the comparison is experiment
// E10 (internal/exper, recorded in EXPERIMENTS.md).
func UniformHash(t *topology.Tree, r, s dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, r, s)
	if err != nil {
		return nil, err
	}
	if in.size0 == 0 {
		return in.emptyResult(), nil
	}
	chooser, err := hashing.NewWeightedChooser(hashing.Mix64(seed+0xbead), place.Uniform(len(in.nodes)))
	if err != nil {
		return nil, err
	}
	e := netsim.NewEngine(t, opts...)
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := t.ComputeIndex(v)
		sendHashed(out, in.rel0[i], in.nodes, chooser, netsim.TagR)
		sendHashed(out, in.rel1[i], in.nodes, chooser, netsim.TagS)
	})
	x.Execute()
	return finish(e, in, nil), nil
}
