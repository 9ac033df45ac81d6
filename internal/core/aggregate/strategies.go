package aggregate

import (
	"topompc/internal/core/place"
	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Hash aggregates in one round: every node sends each of its local partial
// aggregates to the group's hash target, weighted by the nodes' distinct
// group counts so that busy nodes also host proportionally many groups.
func Hash(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, data)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(in.nodes))
	for i := range in.nodes {
		weights[i] = float64(len(in.local[i]))
	}
	chooser, err := chooserFor(hashing.Mix64(seed+0xa99), weights)
	if err != nil {
		return nil, err
	}
	e := netsim.NewEngine(t, opts...)
	scatterPartials(e, in, chooser, in.local)
	return collect(e, in, "hash"), nil
}

// TwoLevel aggregates in two rounds using the balanced-partition machinery
// of Algorithm 3: groups are first combined inside each block (hashing over
// block members, weighted by their group counts), then the combined block
// partials are hashed globally. Bottlenecked inter-block links carry each
// group once per block instead of once per node.
func TwoLevel(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, data)
	if err != nil {
		return nil, err
	}
	blocks := blocksByGroups(t, in)
	blockOf := make(map[topology.NodeID]int, len(in.nodes))
	for b, members := range blocks {
		for _, v := range members {
			blockOf[v] = b
		}
	}
	// Per-block choosers weighted by group counts.
	blockChoosers := make([]*hashing.WeightedChooser, len(blocks))
	for b, members := range blocks {
		w := make([]float64, len(members))
		for j, v := range members {
			w[j] = float64(len(in.local[in.idx[v]]))
		}
		blockChoosers[b], err = chooserFor(hashing.Mix64(seed+uint64(b)+0x77), w)
		if err != nil {
			return nil, err
		}
	}

	e := netsim.NewEngine(t, opts...)
	// Round 1: combine within blocks.
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := in.idx[v]
		b := blockOf[v]
		members := blocks[b]
		byDst := make(map[topology.NodeID][]uint64)
		for _, g := range sortedGroups(in.local[i]) {
			d := members[blockChoosers[b].Choose(g)]
			byDst[d] = append(byDst[d], g)
		}
		for _, target := range members {
			if groups := byDst[target]; len(groups) > 0 {
				out.Send(target, netsim.TagData, partialMsg(in.local[i], groups))
			}
		}
	})
	x.Execute()

	// Block-combined partials per node.
	combined := make([]map[uint64]int64, len(in.nodes))
	for i, v := range in.nodes {
		m := make(map[uint64]int64)
		ib := e.Inbox(v)
		for mi := 0; mi < ib.Len(); mi++ {
			msg := ib.At(mi)
			decodePartials(m, msg.Keys)
		}
		combined[i] = m
	}

	// Round 2: hash block partials globally, weighted by combined counts.
	weights := make([]float64, len(in.nodes))
	for i := range in.nodes {
		weights[i] = float64(len(combined[i]))
	}
	global, err := chooserFor(hashing.Mix64(seed+0xfeed), weights)
	if err != nil {
		return nil, err
	}
	scatterPartials(e, in, global, combined)
	return collect(e, in, "twolevel"), nil
}

// Gather ships every local partial to one node.
func Gather(t *topology.Tree, data Placement, target topology.NodeID, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, data)
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
	e := netsim.NewEngine(t, opts...)
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := in.idx[v]
		if len(in.local[i]) > 0 {
			out.Send(target, netsim.TagData, partialMsg(in.local[i], sortedGroups(in.local[i])))
		}
	})
	x.Execute()
	return collect(e, in, "gather"), nil
}

// blocksByGroups partitions the compute nodes with Algorithm 3, using
// distinct-group counts as loads and the global distinct-group count as the
// |R| threshold, so blocks are regions already holding a full "copy-worth"
// of groups.
func blocksByGroups(t *topology.Tree, in *instance) [][]topology.NodeID {
	loads := make(topology.Loads, t.NumNodes())
	all := make(map[uint64]bool)
	for i, v := range in.nodes {
		loads[v] = int64(len(in.local[i]))
		for g := range in.local[i] {
			all[g] = true
		}
	}
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

// collect reduces each node's inbox into its output map. A node that
// received nothing but kept local-only groups would double-emit; the
// strategies always send every group somewhere (possibly to self, which is
// free), so the inbox is the complete truth.
func collect(e *netsim.Engine, in *instance, strategy string) *Result {
	res := &Result{
		PerNode:  make([]map[uint64]int64, len(in.nodes)),
		Strategy: strategy,
	}
	for i, v := range in.nodes {
		m := make(map[uint64]int64)
		ib := e.Inbox(v)
		for mi := 0; mi < ib.Len(); mi++ {
			msg := ib.At(mi)
			decodePartials(m, msg.Keys)
		}
		res.PerNode[i] = m
	}
	res.Report = e.Report()
	return res
}
