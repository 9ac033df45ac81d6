package intersect

import (
	"fmt"

	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Tree runs TreeIntersect (Algorithm 2) on an arbitrary symmetric tree: it
// finds a balanced partition of the compute nodes (Algorithm 3), hashes
// every tuple of the smaller relation into every block (replication), and
// hashes every tuple of the larger relation within its own block only —
// all within a single communication round. The hash h_i of block i sends a
// key to member v with probability N_v / Σ_{u∈block} N_u.
//
// Theorem 2: the cost is within O(log N · log |V|) of the Theorem 1 lower
// bound with high probability.
func Tree(t *topology.Tree, r, s dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return round(t, r, s, true, opts, func(in *instance) (*place.BlockRouter, error) {
		blocks, err := place.BalancedPartition(t, in.loads, in.size0)
		if err != nil {
			return nil, err
		}
		return place.NewBlockRouter(t, blocks, in.weights(), seed, 1)
	})
}

// TreeNoPartition runs Algorithm 2 with the balanced partition disabled
// (one global block hashing over all compute nodes). It is correct but
// loses the per-block locality Theorem 2 relies on; used by the A2
// ablation.
func TreeNoPartition(t *topology.Tree, r, s dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return round(t, r, s, true, opts, func(in *instance) (*place.BlockRouter, error) {
		return place.NewFlatRouter(t, in.weights(), seed, 1)
	})
}

// UniformHash is the topology-oblivious MPC baseline: a classic distributed
// hash join that hashes every tuple of both relations uniformly across all
// compute nodes, ignoring both the topology and the data distribution.
// Optimal in the MPC model under uniform initial distribution, it can be
// far from optimal on heterogeneous trees — the comparison is experiment
// E10 (internal/exper, recorded in EXPERIMENTS.md).
func UniformHash(t *topology.Tree, r, s dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return round(t, r, s, false, opts, func(in *instance) (*place.BlockRouter, error) {
		return place.NewFlatRouter(t, place.Uniform(len(in.nodes)), seed, 0xbead)
	})
}

// round runs Algorithm 2's round with the router route builds: the smaller
// relation replicated across its blocks when replicate, hashed within the
// sender's block like the larger one otherwise.
func round(t *topology.Tree, r, s dataset.Placement, replicate bool, opts []netsim.Option, route func(in *instance) (*place.BlockRouter, error)) (*Result, error) {
	in, err := newInstance(t, r, s)
	if err != nil {
		return nil, err
	}
	if in.size0 == 0 {
		return in.emptyResult(), nil
	}
	router, err := route(in)
	if err != nil {
		return nil, fmt.Errorf("intersect: %w", err)
	}
	e := netsim.NewEngine(t, opts...)
	x := e.Exchange()
	router.Round(x, 1, replicate, func(i int) ([]uint64, []uint64) { return in.rel0[i], in.rel1[i] })
	x.Execute()
	res := finish(e, in, nil)
	if replicate {
		res.Blocks = router.Blocks
	}
	return res, nil
}

// weights is N_v by compute index, the block hashes' weights.
func (in *instance) weights() []float64 {
	w := make([]float64, len(in.nodes))
	for i, v := range in.nodes {
		w[i] = float64(in.loads[v])
	}
	return w
}
