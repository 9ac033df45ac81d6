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
	return treeWithBlocks(t, r, s, seed, nil, opts)
}

// TreeNoPartition runs Algorithm 2 with the balanced partition disabled
// (one global block hashing over all compute nodes). It is correct but
// loses the per-block locality Theorem 2 relies on; used by the A2
// ablation.
func TreeNoPartition(t *topology.Tree, r, s dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	single := [][]topology.NodeID{append([]topology.NodeID(nil), t.ComputeNodes()...)}
	return treeWithBlocks(t, r, s, seed, single, opts)
}

func treeWithBlocks(t *topology.Tree, r, s dataset.Placement, seed uint64, blocks [][]topology.NodeID, opts []netsim.Option) (*Result, error) {
	in, err := newInstance(t, r, s)
	if err != nil {
		return nil, err
	}
	if in.size0 == 0 {
		return in.emptyResult(), nil
	}
	if blocks == nil {
		blocks, err = place.BalancedPartition(t, in.loads, in.size0)
		if err != nil {
			return nil, err
		}
	}
	weights := make([]float64, len(in.nodes)) // N_v by compute index
	for i, v := range in.nodes {
		weights[i] = float64(in.loads[v])
	}
	router, err := place.NewBlockRouter(t, blocks, weights, seed, 1)
	if err != nil {
		return nil, fmt.Errorf("intersect: %w", err)
	}

	e := netsim.NewEngine(t, opts...)
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := t.ComputeIndex(v)
		// Smaller relation: each key goes to one node per block; the keys
		// sharing a destination vector travel as one multicast, vectors in
		// order of first appearance.
		group, n := router.DestinationGroups(in.rel0[i])
		buf, off := layOut(in.rel0[i], group, n)
		dsts := make([]topology.NodeID, len(blocks))
		for g := 0; g < n; g++ {
			router.Destinations(dsts, buf[off[g]])
			out.Multicast(dsts, netsim.TagR, buf[off[g]:off[g+1]])
		}
		// Larger relation: hash within the node's own block only.
		b := router.BlockOf(i)
		sendHashed(out, in.rel1[i], blocks[b], router.Chooser(b), netsim.TagS)
	})
	x.Execute()

	res := finish(e, in, nil)
	res.Blocks = blocks
	return res, nil
}
