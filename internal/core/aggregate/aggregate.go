// Package aggregate implements topology-aware group-by aggregation on
// symmetric trees — an extension beyond the PODS 2021 paper in the
// direction its conclusion proposes ("more complex tasks ... in the context
// of the MPC model") and in the spirit of the distribution-aware
// aggregation scheduling the paper cites (Liu, Salmasi, Blanas,
// Sidiropoulos; VLDB 2018).
//
// Task: every compute node holds (group, value) pairs; the goal is that
// each group's total is produced at exactly one node. A partial aggregate
// for one group counts as one element on the wire.
//
// The lower bound is exact for this model: removing edge e splits the tree
// into two sides, and every group with data on both sides must cross e at
// least once (partial aggregates cannot merge across groups), so
//
//	CLB = max_e spanning(e) / w_e
//
// where spanning(e) counts the groups present on both sides of the cut —
// the groups whose holders' Steiner tree contains e (lowerbound.Spanning).
//
// The strategies provided:
//
//   - Hash: one round; groups are hashed (weighted by local group counts)
//     to target nodes, which combine. Simple but pays once per (node,
//     group) pair instead of once per group crossing an edge.
//   - TwoLevel: two rounds; groups are first combined inside the blocks of
//     a balanced partition (rack-local combining), then block partials are
//     hashed globally. Bottleneck uplinks then carry each group at most
//     once per block instead of once per node.
//   - Gather: all pairs to one node.
//   - CombinerTree / CombinerTreeSingle (combiner.go): the place-engine
//     trees — partials merge along the weak-cut hierarchy (once per block
//     per level, or once per flat block) before hashing to
//     capacity-weighted homes.
//
// No asymptotic optimality is claimed for the extension; the E-series
// experiment X1 reports measured ratios.
package aggregate

import (
	"fmt"
	"slices"

	"topompc/internal/core/place"
	"topompc/internal/hashing"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Pair is one (group, value) input record.
type Pair struct {
	Group uint64
	Value int64
}

// Placement is the initial pairs per compute node, in ComputeNodes order.
type Placement [][]Pair

// Result of an aggregation protocol.
type Result struct {
	// PerNode maps, at each compute node, group -> total for the groups
	// that node is responsible for.
	PerNode []map[uint64]int64
	// Report is the cost accounting.
	Report *netsim.Report
	// Strategy identifies the protocol path.
	Strategy string
}

// Totals merges the per-node outputs into one map (for verification).
func (r *Result) Totals() map[uint64]int64 {
	out := make(map[uint64]int64)
	for _, m := range r.PerNode {
		for g, v := range m {
			out[g] += v
		}
	}
	return out
}

// Reference computes the expected totals directly.
func Reference(data Placement) map[uint64]int64 {
	out := make(map[uint64]int64)
	for _, frag := range data {
		for _, p := range frag {
			out[p.Group] += p.Value
		}
	}
	return out
}

// Verify checks that res produces every group total exactly once.
func Verify(data Placement, res *Result) error {
	want := Reference(data)
	seen := make(map[uint64]bool)
	for i, m := range res.PerNode {
		for g, v := range m {
			if seen[g] {
				return fmt.Errorf("aggregate: group %d emitted at two nodes", g)
			}
			seen[g] = true
			if v != want[g] {
				return fmt.Errorf("aggregate: node %d group %d total %d, want %d", i, g, v, want[g])
			}
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("aggregate: %d groups produced, want %d", len(seen), len(want))
	}
	return nil
}

// LowerBound computes CLB = max_e spanning(e)/w_e exactly. spanning(e) is
// the number of groups whose holders' Steiner tree contains e, so all edges
// are counted in one sweep (lowerbound.Spanning, which also reports the
// per-edge terms and the binding edge).
func LowerBound(t *topology.Tree, data Placement) float64 {
	return lowerbound.Spanning(t, GroupHolders(t, data)).Value
}

// GroupHolders reports, for every group, the compute nodes holding at
// least one of its pairs, each node once, in ComputeNodes order. Groups
// are listed in order of first appearance.
func GroupHolders(t *topology.Tree, data Placement) [][]topology.NodeID {
	nodes := t.ComputeNodes()
	id := make(map[uint64]int) // group -> position in out
	var out [][]topology.NodeID
	for i, frag := range data {
		for _, p := range frag {
			g, ok := id[p.Group]
			if !ok {
				g = len(out)
				id[p.Group] = g
				out = append(out, nil)
			}
			// Fragments are visited in order, so a group this fragment
			// already listed has this node as its last holder.
			if hs := out[g]; len(hs) == 0 || hs[len(hs)-1] != nodes[i] {
				out[g] = append(hs, nodes[i])
			}
		}
	}
	return out
}

// instance validates an aggregation input.
type instance struct {
	t     *topology.Tree
	nodes []topology.NodeID
	idx   []int // NodeID -> position in nodes (compute nodes only)
	data  Placement
	local []map[uint64]int64 // pre-combined local partials
}

func newInstance(t *topology.Tree, data Placement) (*instance, error) {
	nodes := t.ComputeNodes()
	if len(data) != len(nodes) {
		return nil, fmt.Errorf("aggregate: placement covers %d nodes, tree has %d compute nodes",
			len(data), len(nodes))
	}
	in := &instance{t: t, nodes: nodes, idx: make([]int, t.NumNodes()), data: data, local: make([]map[uint64]int64, len(nodes))}
	for i, v := range nodes {
		in.idx[v] = i
	}
	for i, frag := range data {
		m := make(map[uint64]int64, len(frag))
		for _, p := range frag {
			m[p.Group] += p.Value
		}
		in.local[i] = m
	}
	return in, nil
}

// sortedGroups returns the map's keys in ascending order (deterministic
// message construction).
func sortedGroups(m map[uint64]int64) []uint64 {
	out := make([]uint64, 0, len(m))
	for g := range m {
		out = append(out, g)
	}
	slices.Sort(out)
	return out
}

// partialMsg encodes partial aggregates as (group, value) element pairs:
// each partial costs 2 elements on the wire, consistently for every
// strategy.
func partialMsg(m map[uint64]int64, groups []uint64) []uint64 {
	keys := make([]uint64, 0, 2*len(groups))
	for _, g := range groups {
		keys = append(keys, g, uint64(m[g]))
	}
	return keys
}

func decodePartials(dst map[uint64]int64, keys []uint64) {
	for i := 0; i+1 < len(keys); i += 2 {
		dst[keys[i]] += int64(keys[i+1])
	}
}

// chooserFor builds a shared weighted chooser over the given nodes with the
// given weights (falling back to uniform when all weights vanish).
func chooserFor(seed uint64, weights []float64) (*hashing.WeightedChooser, error) {
	return hashing.NewWeightedChooser(seed, place.FallbackUniform(weights))
}

// scatterPartials plans and executes one exchange round that delivers each
// node's partial aggregates to their group homes under the shared chooser
// (self-sends included — they are free and keep the final-round inbox the
// complete truth for collect). Every hashing strategy ends in this round.
func scatterPartials(e *netsim.Engine, in *instance, chooser *hashing.WeightedChooser, partials []map[uint64]int64) {
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := in.idx[v]
		m := partials[i]
		if len(m) == 0 {
			return
		}
		byDst := make(map[topology.NodeID][]uint64)
		for _, g := range sortedGroups(m) {
			d := in.nodes[chooser.Choose(g)]
			byDst[d] = append(byDst[d], g)
		}
		for _, target := range in.nodes {
			if groups := byDst[target]; len(groups) > 0 {
				out.Send(target, netsim.TagData, partialMsg(m, groups))
			}
		}
	})
	x.Execute()
}
