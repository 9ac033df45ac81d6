package aggregate

import (
	"topompc/internal/core/place"
	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// groupCounts reports every node's distinct-group count as chooser weights.
func groupCounts(partials []partial) []float64 {
	w := make([]float64, len(partials))
	for i, p := range partials {
		w[i] = float64(p.groups())
	}
	return w
}

// Hash aggregates in one round: every node sends each of its local partial
// aggregates to the group's hash target, weighted by the nodes' distinct
// group counts so that busy nodes also host proportionally many groups.
func Hash(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, data, opts)
	if err != nil {
		return nil, err
	}
	chooser, err := chooserFor(hashing.Mix64(seed+0xa99), groupCounts(in.local))
	if err != nil {
		return nil, err
	}
	scatterPartials(in, chooser, in.local)
	return collect(in, "hash"), nil
}

// TwoLevel aggregates in two rounds using the balanced-partition machinery
// of Algorithm 3: groups are first combined inside each block (hashing over
// block members, weighted by their group counts), then the combined block
// partials are hashed globally. Bottlenecked inter-block links carry each
// group once per block instead of once per node.
func TwoLevel(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, data, opts)
	if err != nil {
		return nil, err
	}
	blocks := blocksByGroups(t, in)
	// Per-block hashes weighted by group counts.
	router, err := place.NewBlockRouter(t, blocks, groupCounts(in.local), seed, 0x77)
	if err != nil {
		return nil, err
	}

	// Round 1: combine within blocks.
	x := in.e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := t.ComputeIndex(v)
		b := router.BlockOf(i)
		sendHashed(out, in.local[i], blocks[b], router.Chooser(b))
	})
	x.Execute()
	combined := make([]partial, len(in.nodes)) // block-combined partials
	in.forHomes(func(sc *combineScratch, i int) {
		combined[i] = sc.merge(in.e.Inbox(in.nodes[i]), netsim.TagData, nil)
	})

	// Round 2: hash block partials globally, weighted by combined counts.
	global, err := chooserFor(hashing.Mix64(seed+0xfeed), groupCounts(combined))
	if err != nil {
		return nil, err
	}
	scatterPartials(in, global, combined)
	return collect(in, "twolevel"), nil
}

// Gather ships every local partial to one node.
func Gather(t *topology.Tree, data Placement, target topology.NodeID, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, data, opts)
	if err != nil {
		return nil, err
	}
	if target == topology.NoNode {
		best := 0
		for i := range in.nodes {
			if len(in.local[i]) > len(in.local[best]) {
				best = i
			}
		}
		target = in.nodes[best]
	}
	x := in.e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		if p := in.local[t.ComputeIndex(v)]; len(p) > 0 {
			out.Send(target, netsim.TagData, p)
		}
	})
	x.Execute()
	return collect(in, "gather"), nil
}

// blocksByGroups partitions the compute nodes with Algorithm 3, using
// distinct-group counts as loads and the global distinct-group count as the
// |R| threshold, so blocks are regions already holding a full "copy-worth"
// of groups.
func blocksByGroups(t *topology.Tree, in *instance) [][]topology.NodeID {
	loads := make(topology.Loads, t.NumNodes())
	var all []uint64 // every node's groups
	for i, v := range in.nodes {
		loads[v] = int64(in.local[i].groups())
		for j := 0; j < len(in.local[i]); j += 2 {
			all = append(all, in.local[i][j])
		}
	}
	all, _ = in.e.Pool().SortUnique(all, nil)
	threshold := int64(len(all))
	if threshold == 0 {
		threshold = 1
	}
	blocks, err := place.BalancedPartition(t, loads, threshold)
	if err != nil || len(blocks) == 0 {
		return [][]topology.NodeID{append([]topology.NodeID(nil), in.nodes...)}
	}
	return blocks
}

// collect reduces each node's inbox into its output pairs. A node that
// received nothing but kept local-only groups would double-emit; the
// strategies always send every group somewhere (possibly to self, which is
// free), so the inbox is the complete truth.
func collect(in *instance, strategy string) *Result {
	res := &Result{
		PerNode:  make([][]Pair, len(in.nodes)),
		Strategy: strategy,
	}
	in.forHomes(func(sc *combineScratch, i int) {
		p := sc.merge(in.e.Inbox(in.nodes[i]), netsim.TagData, nil)
		pairs := make([]Pair, p.groups())
		for j := range pairs {
			pairs[j] = Pair{Group: p[2*j], Value: int64(p[2*j+1])}
		}
		res.PerNode[i] = pairs
	})
	res.Report = in.e.Report()
	return res
}
