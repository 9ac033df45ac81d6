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
// list of hops — merge steps as data, each an exchange round after which
// every node holds what it kept merged with what arrived — and the home
// weights and hash salt of the closing scatter, one round that hashes what
// every node still holds to its group homes. The candidates:
//
//   - hash (Hash): no hops; homes weighted by the nodes' local group
//     counts. Simple but pays once per (node, group) pair instead of once
//     per group crossing an edge.
//   - flat-hash (HashFlat): no hops; uniform homes, as on a flat network.
//   - gather (Gather): no hops; one home, the target node.
//   - twolevel: one rack hop — groups combine inside the blocks of a
//     balanced partition — then homes weighted by the combined group
//     counts. Bottleneck uplinks carry each group at most once per block
//     instead of once per node.
//   - the combiner trees (CombinerTree / CombinerTreeSingle, combiner.go):
//     one forwarding hop per level of the weak-cut hierarchy's up-sweep (or
//     of its deepest level alone), partials merging once per block per
//     level, then capacity-weighted homes.
//
// Planned hands all of them to netsim.Engine.RunCheapest, which prices
// every round of every candidate on the instance and runs the cheapest; an
// entry point with one candidate runs it unpriced. A candidate plans a
// priced round as it plans one that runs, and its hash sends lay no row out
// there (place.Scatter). To price the rounds after a hop, the driver routes
// what the hop sends in-process and merges it with the same combine step
// that merges the inbox when the hop runs, so a priced candidate and its
// run see the same partials.
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

// merge combines the words the home received, in words, with what it
// holds.
func (sc *combineScratch) merge(held partial) partial {
	sc.words = append(sc.words, held...)
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

// candidate is one aggregation strategy on the driver: its hops run in
// order, then the scatter hashes what every node holds to homes chosen
// with weights homes(held) under salt.
type candidate struct {
	strategy string
	hops     []hop
	homes    func(held []partial) []float64
	salt     uint64
}

// hop is one merge step as data, an exchange round after which every node
// holds what it kept merged with what arrived. With rack set, every node
// hashes each group it holds within its block of rack, itself included,
// and keeps nothing; otherwise every node forwards its whole partial to
// its combiner up.Target, and a combiner (Target itself) keeps its own.
type hop struct {
	rack *place.BlockRouter
	up   place.UpStep
}

// keeps reports whether node i holds on to its own partial over the hop.
func (h *hop) keeps(i int) bool { return h.rack == nil && h.up.Target[i] == i }

// plan queues the hop's round on x, every node sending of what it holds.
func (h *hop) plan(in *instance, x *netsim.Exchange, held []partial) {
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := in.t.ComputeIndex(v)
		if h.rack != nil {
			h.rack.Hash(out, netsim.TagData, i, held[i], 2)
		} else if !h.keeps(i) && len(held[i]) > 0 {
			out.Send(in.nodes[h.up.Target[i]], netsim.TagData, held[i])
		}
	})
}

// fixed is home weights that do not depend on what the nodes hold.
func fixed(w []float64) func([]partial) []float64 {
	return func([]partial) []float64 { return w }
}

// run is the aggregation driver: it pre-combines every node's pairs, asks
// plan for the candidates on that instance, runs the cheapest
// (netsim.Engine.RunCheapest; a lone candidate runs unpriced) and collects
// the group totals from the scatter's inboxes. A priced hop is routed
// in-process (route), a hop that runs is merged from its inboxes, so the
// rounds after a hop see the same partials either way.
func run(t *topology.Tree, data Placement, seed uint64, opts []netsim.Option, plan func(in *instance) ([]candidate, error)) (*Result, error) {
	in, err := newInstance(t, data, opts)
	if err != nil {
		return nil, err
	}
	cands, err := plan(in)
	if err != nil {
		return nil, err
	}
	var failed error
	plans := make([]netsim.Candidate, len(cands))
	for k := range cands {
		c := &cands[k]
		var held []partial
		plans[k] = netsim.Candidate{Name: c.strategy, Rounds: len(c.hops) + 1, Plan: func(x *netsim.Exchange, r int) {
			switch {
			case r == 0:
				held = in.local
			case !x.Priced():
				held = in.merged(&c.hops[r-1], held, in.inbox)
			}
			if r == len(c.hops) {
				// Self-sends included: they are free and keep the final
				// inbox the complete truth for collect.
				router, err := place.NewFlatRouter(t, c.homes(held), seed, c.salt)
				if err != nil {
					failed = err
					return
				}
				x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
					i := t.ComputeIndex(v)
					router.Hash(out, netsim.TagData, i, held[i], 2)
				})
				return
			}
			h := &c.hops[r]
			h.plan(in, x, held)
			switch {
			case x.Priced():
				held = in.route(h, held)
			case h.rack == nil:
				in.countUpSweep(h, held)
			}
		}}
	}
	best := in.e.RunCheapest(plans)
	if failed != nil {
		return nil, failed
	}
	return collect(in, cands[best].strategy), nil
}

// countUpSweep feeds an up-sweep hop that runs to the engine's metrics:
// aggregate.upsweep_rounds counts it, and aggregate.shipped_elements adds
// what its forwarders ship of held.
func (in *instance) countUpSweep(h *hop, held []partial) {
	var shipped int64
	for i, p := range held {
		if !h.keeps(i) {
			shipped += int64(len(p))
		}
	}
	mx := in.e.Metrics()
	mx.Counter("aggregate.upsweep_rounds").Inc()
	mx.Counter("aggregate.shipped_elements").Add(shipped)
}

// inbox appends the words node i received under TagData to dst.
func (in *instance) inbox(i int, dst []uint64) []uint64 {
	return in.e.Inbox(in.nodes[i]).AppendKeys(dst, netsim.TagData)
}

// merged is what every node holds after hop h: what it keeps of held
// merged with the words arrived(i, dst) appends to dst — the inbox when the
// hop ran, the in-process routing when it was priced.
func (in *instance) merged(h *hop, held []partial, arrived func(i int, dst []uint64) []uint64) []partial {
	next := make([]partial, len(in.nodes))
	in.forHomes(func(sc *combineScratch, i int) {
		if h.keeps(i) {
			next[i] = held[i]
		}
		if sc.words = arrived(i, sc.words[:0]); len(sc.words) > 0 {
			next[i] = sc.merge(next[i])
		}
	})
	return next
}

// route is hop h computed in-process, for pricing the rounds after it: it
// delivers each word to the node plan sends it to and merges as a run of
// the hop would.
func (in *instance) route(h *hop, held []partial) []partial {
	arrived := make([][]uint64, len(in.nodes))
	for i, p := range held {
		switch {
		case h.rack != nil:
			b := h.rack.BlockOf(i)
			members, chooser := h.rack.Blocks[b], h.rack.Chooser(b)
			for j := 0; j < len(p); j += 2 {
				to := in.t.ComputeIndex(members[chooser.Choose(p[j])])
				arrived[to] = append(arrived[to], p[j], p[j+1])
			}
		case !h.keeps(i):
			arrived[h.up.Target[i]] = append(arrived[h.up.Target[i]], p...)
		}
	}
	return in.merged(h, held, func(i int, dst []uint64) []uint64 { return append(dst, arrived[i]...) })
}
