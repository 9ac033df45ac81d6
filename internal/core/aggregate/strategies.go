package aggregate

import (
	"fmt"

	"topompc/internal/core/place"
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
	return run(t, data, seed, opts, func(*instance) (candidate, error) {
		return candidate{strategy: "hash", homes: groupCounts, salt: 0xa99}, nil
	})
}

// HashFlat is the topology-oblivious counterpart of the combiner trees: a
// single round of uniform hashing with no block combining, as on a flat
// network — the same chooser seed, so on symmetric topologies (where
// capacities are uniform and no combining plan exists) the protocols
// coincide and the combiner-tree levers can be measured in isolation.
func HashFlat(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return run(t, data, seed, opts, func(in *instance) (candidate, error) {
		return candidate{strategy: "flat-hash", homes: fixed(place.Uniform(len(in.nodes))), salt: 0xa66}, nil
	})
}

// TwoLevel aggregates in two rounds using the balanced-partition machinery
// of Algorithm 3: groups are first combined inside each block (hashing over
// block members, weighted by their group counts), then the combined block
// partials are hashed globally, weighted by the combined group counts.
// Bottlenecked inter-block links carry each group once per block instead of
// once per node.
func TwoLevel(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return run(t, data, seed, opts, func(in *instance) (candidate, error) {
		blocks := blocksByGroups(t, in)
		router, err := place.NewBlockRouter(t, blocks, groupCounts(in.local), seed, 0x77)
		if err != nil {
			return candidate{}, err
		}
		// Every node hashes all it holds within its block, itself included.
		rack := func(held []partial) []partial {
			next, _, _ := in.mergeRound(held, netsim.TagData, func(out *netsim.Outbox, i int, p partial) {
				router.Hash(out, netsim.TagData, i, p, 2)
			}, func(int) bool { return false })
			return next
		}
		return candidate{strategy: "twolevel", steps: []mergeStep{rack}, homes: groupCounts, salt: 0xfeed}, nil
	})
}

// Gather ships every local partial to one node, in one message each. With
// target = NoNode the node holding the most groups is chosen; a target that
// is not a compute node is an error.
func Gather(t *topology.Tree, data Placement, target topology.NodeID, opts ...netsim.Option) (*Result, error) {
	if target != topology.NoNode && (uint(target) >= uint(t.NumNodes()) || !t.IsCompute(target)) {
		return nil, fmt.Errorf("aggregate: target %v is not a compute node", target)
	}
	return run(t, data, 0, opts, func(in *instance) (candidate, error) {
		home := 0
		if target != topology.NoNode {
			home = t.ComputeIndex(target)
		} else {
			for i, p := range in.local {
				if p.groups() > in.local[home].groups() {
					home = i
				}
			}
		}
		w := make([]float64, len(in.nodes))
		w[home] = 1
		return candidate{strategy: "gather", homes: fixed(w)}, nil
	})
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
// scatter always sends every group somewhere (possibly to self, which is
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
