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

// Planned is the planned aggregation: it prices twolevel, hash, the
// multi-level combiner tree, flat-hash, a gather at the cheapest node
// (place.Gather) and, when the weak-cut hierarchy is deeper than one level
// (at depth ≤ 1 it is the multi-level tree), the single-level tree, and
// runs the cheapest (netsim.Engine.RunCheapest; ties to fewer rounds, then
// the earlier). Every candidate is the one its own entry point runs alone,
// so the planned cost is the least of theirs.
func Planned(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return run(t, data, seed, opts, func(in *instance) ([]candidate, error) { return planned(in, seed) })
}

// planned is Planned's candidate list, in its tie order.
func planned(in *instance, seed uint64) ([]candidate, error) {
	two, err := twoLevel(in, seed)
	if err != nil {
		return nil, err
	}
	hier := place.HierarchyFor(in.t)
	cands := []candidate{two, hash, combinerTree(in, hier, true), flatHash(in), gather(in, topology.NoNode)}
	if hier != nil && hier.Depth() > 1 {
		cands = append(cands, combinerTree(in, hier.Deepest(), false))
	}
	return cands, nil
}

// Hash aggregates in one round: every node sends each of its local partial
// aggregates to the group's hash target, weighted by the nodes' distinct
// group counts so that busy nodes also host proportionally many groups.
func Hash(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return run(t, data, seed, opts, func(*instance) ([]candidate, error) { return []candidate{hash}, nil })
}

// hash is Hash's candidate.
var hash = candidate{strategy: "hash", homes: groupCounts, salt: 0xa99}

// HashFlat is the topology-oblivious counterpart of the combiner trees: a
// single round of uniform hashing with no block combining, as on a flat
// network — the same chooser seed, so on symmetric topologies (where
// capacities are uniform and no combining plan exists) the protocols
// coincide and the combiner-tree levers can be measured in isolation.
func HashFlat(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return run(t, data, seed, opts, func(in *instance) ([]candidate, error) { return []candidate{flatHash(in)}, nil })
}

// flatHash is HashFlat's candidate.
func flatHash(in *instance) candidate {
	return candidate{strategy: "flat-hash", homes: fixed(place.Uniform(len(in.nodes))), salt: 0xa66}
}

// twoLevel is the two-round candidate on the balanced-partition machinery
// of Algorithm 3: one rack hop combines groups inside each block (hashing
// over block members, weighted by their group counts), then the combined
// block partials are hashed globally, weighted by the combined group
// counts. Bottlenecked inter-block links carry each group once per block
// instead of once per node.
func twoLevel(in *instance, seed uint64) (candidate, error) {
	rack, err := place.NewBlockRouter(in.t, blocksByGroups(in.t, in), groupCounts(in.local), seed, 0x77)
	if err != nil {
		return candidate{}, err
	}
	return candidate{strategy: "twolevel", hops: []hop{{rack: rack}}, homes: groupCounts, salt: 0xfeed}, nil
}

// Gather ships every local partial to one node, in one message each. With
// target = NoNode the node place.Gather prices cheapest is chosen; a target
// that is not a compute node is an error.
func Gather(t *topology.Tree, data Placement, target topology.NodeID, opts ...netsim.Option) (*Result, error) {
	if target != topology.NoNode && (uint(target) >= uint(t.NumNodes()) || !t.IsCompute(target)) {
		return nil, fmt.Errorf("aggregate: target %v is not a compute node", target)
	}
	return run(t, data, 0, opts, func(in *instance) ([]candidate, error) { return []candidate{gather(in, target)}, nil })
}

// gather is the one-round candidate with every group homed at target, or
// with target NoNode at the node where the round of every partial, two
// words a group, costs least (place.Gather).
func gather(in *instance, target topology.NodeID) candidate {
	if target == topology.NoNode {
		loads := make(topology.Loads, in.t.NumNodes())
		for i, v := range in.nodes {
			loads[v] = 2 * int64(in.local[i].groups())
		}
		target = in.nodes[place.Gather(in.t, loads).Node]
	}
	w := make([]float64, len(in.nodes))
	w[in.t.ComputeIndex(target)] = 1
	return candidate{strategy: "gather", homes: fixed(w)}
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
		sc.words = in.inbox(i, sc.words[:0])
		p := sc.merge(nil)
		pairs := make([]Pair, p.groups())
		for j := range pairs {
			pairs[j] = Pair{Group: p[2*j], Value: int64(p[2*j+1])}
		}
		res.PerNode[i] = pairs
	})
	res.Report = in.e.Report()
	return res
}
