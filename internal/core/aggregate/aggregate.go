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
// Every strategy is a candidate on one driver (run): a strategy name, a
// list of merge steps — exchange rounds, each mapping what every node holds
// to what it holds next — and the home weights and hash salt of the closing
// scatter, one round that hashes what every node still holds to its group
// homes. The candidates:
//
//   - Hash: no steps; homes weighted by the nodes' local group counts.
//     Simple but pays once per (node, group) pair instead of once per group
//     crossing an edge.
//   - HashFlat: no steps; uniform homes, as on a flat network.
//   - Gather: no steps; one home, the target node.
//   - TwoLevel: one rack step — groups combine inside the blocks of a
//     balanced partition — then homes weighted by the combined group
//     counts. Bottleneck uplinks carry each group at most once per block
//     instead of once per node.
//   - CombinerTree / CombinerTreeSingle (combiner.go): one step per level
//     of the weak-cut hierarchy's up-sweep (or of its deepest level alone),
//     partials merging once per block per level, then capacity-weighted
//     homes.
//
// Local compute is sort-merge on the par kernels, forked by home: a partial
// is a group-ascending run of (group, value) words from the local
// pre-combine through every combiner level to the final collect; a node
// that combines concatenates what arrived with what it holds, radix-sorts
// by group and sums the runs, and a sender hashes a partial to its homes
// with place.BlockRouter.Hash, the one keyed scatter.
//
// No asymptotic optimality is claimed for the extension; the E-series
// experiment X1 reports measured ratios.
package aggregate

import (
	"fmt"
	"slices"

	"topompc/internal/core/place"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/par"
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
	// PerNode lists, at each compute node, the (group, total) pairs of the
	// groups that node is responsible for, by ascending group.
	PerNode [][]Pair
	// Report is the cost accounting.
	Report *netsim.Report
	// Strategy identifies the protocol path.
	Strategy string
}

// Totals merges the per-node outputs into one map (for verification).
func (r *Result) Totals() map[uint64]int64 {
	out := make(map[uint64]int64)
	for _, pairs := range r.PerNode {
		for _, p := range pairs {
			out[p.Group] += p.Value
		}
	}
	return out
}

// Reference computes the expected totals directly. It hashes where the
// protocols sort and sum runs, so the two share no aggregation logic.
func Reference(data Placement) map[uint64]int64 {
	out := make(map[uint64]int64)
	for _, frag := range data {
		for _, p := range frag {
			out[p.Group] += p.Value
		}
	}
	return out
}

// Verify checks that res produces every group total of want, the Reference
// of its input, exactly once.
func Verify(want map[uint64]int64, res *Result) error {
	seen := make(map[uint64]bool)
	for i, pairs := range res.PerNode {
		for _, p := range pairs {
			if seen[p.Group] {
				return fmt.Errorf("aggregate: group %d emitted twice", p.Group)
			}
			seen[p.Group] = true
			if p.Value != want[p.Group] {
				return fmt.Errorf("aggregate: node %d group %d total %d, want %d", i, p.Group, p.Value, want[p.Group])
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
// are listed in ascending order.
func GroupHolders(t *topology.Tree, data Placement) [][]topology.NodeID {
	nodes := t.ComputeNodes()
	total := 0
	for _, frag := range data {
		total += len(frag)
	}
	groups, holder := make([]uint64, 0, total), make([]uint64, 0, total)
	for i, frag := range data {
		for _, p := range frag {
			groups, holder = append(groups, p.Group), append(holder, uint64(i))
		}
	}
	// Stable by group: a group's holders come out in fragment order, with
	// the repeats of one fragment adjacent.
	groups, holder, _, _ = par.SortPairs(groups, holder, nil, nil)
	m := 0
	for j, g := range groups {
		if j == 0 || g != groups[j-1] || holder[j] != holder[j-1] {
			groups[m], holder[m] = g, holder[j]
			m++
		}
	}
	arena := make([]topology.NodeID, m)
	var out [][]topology.NodeID
	first := 0 // of the current group
	for j := 0; j < m; j++ {
		arena[j] = nodes[holder[j]]
		if j+1 == m || groups[j+1] != groups[j] {
			out = append(out, arena[first:j+1:j+1])
			first = j + 1
		}
	}
	return out
}

// partial is one node's partial aggregates as they travel: (group, value)
// words interleaved, groups ascending and distinct — 2 wire elements per
// partial, consistently for every strategy. Partials are never modified, so
// a node forwarding all it holds sends the slice itself.
type partial []uint64

func (p partial) groups() int { return len(p) / 2 }

// combineScratch is one pool shard's working lanes for combining.
type combineScratch struct {
	words        []uint64 // what a home drained from its inbox, then what it combines to
	k, v, tk, tv []uint64 // group and value lanes, and their sort scratch
}

// lanes returns the group and value lanes at length n, for combine.
func (sc *combineScratch) lanes(n int) (k, v []uint64) {
	sc.k, sc.v = slices.Grow(sc.k[:0], n)[:n], slices.Grow(sc.v[:0], n)[:n]
	return sc.k, sc.v
}

// combine sums the values of equal groups in the lanes: sorted by group,
// one output partial per run.
func (sc *combineScratch) combine() partial {
	sc.k, sc.v, sc.tk, sc.tv = par.SortPairs(sc.k, sc.v, sc.tk, sc.tv)
	k, v, out := sc.k, sc.v, sc.words[:0] // whatever words held is in the lanes by now
	for j := 0; j < len(k); {
		g, sum := k[j], uint64(0)
		for ; j < len(k) && k[j] == g; j++ {
			sum += v[j]
		}
		out = append(out, g, sum)
	}
	sc.words = out
	return slices.Clone(out)
}

// merge combines what the home received under tag with what it holds.
func (sc *combineScratch) merge(ib netsim.Inbox, tag netsim.Tag, held partial) partial {
	sc.words = append(ib.AppendKeys(sc.words[:0], tag), held...)
	k, v := sc.lanes(len(sc.words) / 2)
	for j := range k {
		k[j], v[j] = sc.words[2*j], sc.words[2*j+1]
	}
	return sc.combine()
}

// instance is a validated aggregation input on its engine.
type instance struct {
	t       *topology.Tree
	nodes   []topology.NodeID
	e       *netsim.Engine
	scratch []combineScratch // one per pool shard
	local   []partial        // pre-combined local partials
}

func newInstance(t *topology.Tree, data Placement, opts []netsim.Option) (*instance, error) {
	nodes := t.ComputeNodes()
	if len(data) != len(nodes) {
		return nil, fmt.Errorf("aggregate: placement covers %d nodes, tree has %d compute nodes",
			len(data), len(nodes))
	}
	e := netsim.NewEngine(t, opts...)
	in := &instance{t: t, nodes: nodes, e: e, scratch: make([]combineScratch, e.Pool().Workers()), local: make([]partial, len(nodes))}
	in.forHomes(func(sc *combineScratch, i int) {
		k, v := sc.lanes(len(data[i]))
		for j, p := range data[i] {
			k[j], v[j] = p.Group, uint64(p.Value)
		}
		in.local[i] = sc.combine()
	})
	return in, nil
}

// forHomes runs fn for every compute index, forked by home on the engine's
// pool with the shard's scratch.
func (in *instance) forHomes(fn func(sc *combineScratch, i int)) {
	in.e.Pool().Blocks("aggregate local", len(in.nodes), func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(&in.scratch[shard], i)
		}
	})
}

// candidate is one aggregation strategy on the driver: its merge steps run
// in order, then the scatter hashes what every node holds to homes chosen
// with weights homes(held) under salt.
type candidate struct {
	strategy string
	steps    []mergeStep
	homes    func(held []partial) []float64
	salt     uint64
}

// mergeStep is one exchange round: it maps what each node holds to what it
// holds next.
type mergeStep func(held []partial) []partial

// fixed is home weights that do not depend on what the nodes hold.
func fixed(w []float64) func([]partial) []float64 {
	return func([]partial) []float64 { return w }
}

// run is the aggregation driver: it pre-combines every node's pairs, asks
// plan for the candidate on that instance, runs the candidate's merge steps
// and closes with the scatter to the group homes.
func run(t *topology.Tree, data Placement, seed uint64, opts []netsim.Option, plan func(in *instance) (candidate, error)) (*Result, error) {
	in, err := newInstance(t, data, opts)
	if err != nil {
		return nil, err
	}
	c, err := plan(in)
	if err != nil {
		return nil, err
	}
	held := in.local
	for _, step := range c.steps {
		held = step(held)
	}
	router, err := place.NewFlatRouter(t, c.homes(held), seed, c.salt)
	if err != nil {
		return nil, err
	}
	// Self-sends included: they are free and keep the final inbox the
	// complete truth for collect.
	x := in.e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := t.ComputeIndex(v)
		router.Hash(out, netsim.TagData, i, held[i], 2)
	})
	x.Execute()
	return collect(in, c.strategy), nil
}

// mergeRound is the exchange of a merge step: node i queues its sends with
// send(out, i, held[i]), then holds what arrived under tag merged with
// held[i] if keep(i), and with nothing otherwise. It also returns the
// round's stats and the number of group partials that arrived.
func (in *instance) mergeRound(held []partial, tag netsim.Tag, send func(out *netsim.Outbox, i int, p partial),
	keep func(i int) bool) ([]partial, netsim.RoundStats, int64) {
	x := in.e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := in.t.ComputeIndex(v)
		send(out, i, held[i])
	})
	rst := x.Execute()
	next := make([]partial, len(in.nodes))
	arrived := in.e.Pool().Sum("aggregate local", len(in.nodes), func(shard, lo, hi int) int64 {
		var n int64
		for i := lo; i < hi; i++ {
			if keep(i) {
				next[i] = held[i]
			}
			ib := in.e.Inbox(in.nodes[i])
			if k := ib.KeyCount(tag); k > 0 {
				n += int64(k / 2)
				next[i] = in.scratch[shard].merge(ib, tag, next[i])
			}
		}
		return n
	})
	return next, rst, arrived
}
