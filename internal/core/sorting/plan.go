package sorting

import (
	"fmt"
	"math/rand"
	"slices"

	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// instance validates a sorting input.
type instance struct {
	t     *topology.Tree
	nodes []topology.NodeID
	order []topology.NodeID // the left-to-right ordering every output respects
	data  dataset.Placement
	loads topology.Loads
	total int64
	// Holder j samples from seed + j·stride; every holds each fragment
	// where it starts, compute node i being holder i.
	seed, stride int64
	every        *holders
}

func newInstance(t *topology.Tree, data dataset.Placement, seed uint64, stride int64) (*instance, error) {
	nodes := t.ComputeNodes()
	if len(data) != len(nodes) {
		return nil, fmt.Errorf("sorting: placement covers %d nodes, tree has %d compute nodes",
			len(data), len(nodes))
	}
	in := &instance{t: t, nodes: nodes, order: t.LeftToRight(), data: data, loads: make(topology.Loads, t.NumNodes()),
		seed: int64(seed), stride: stride, every: &holders{parts: make([][][]uint64, len(nodes)), seeds: make([]int64, len(nodes))}}
	for i, v := range nodes {
		in.loads[v] = int64(len(data[i]))
		in.total += in.loads[v]
		in.every.parts[i] = data[i : i+1 : i+1]
		in.every.seeds[i] = in.seed + int64(i)*stride
	}
	return in, nil
}

// heaviest is the holder of the most data, the first one among equals.
func (in *instance) heaviest() topology.NodeID {
	best := in.nodes[0]
	for _, v := range in.nodes {
		if in.loads[v] > in.loads[best] {
			best = v
		}
	}
	return best
}

// candidate is one plan for an instance. Without holders it is a gather at
// the coordinator. With them it is a sample sort: the optional ship round,
// then every holder's sample to the coordinator, the splitters it picks to
// the other destinations, and each holder's keys of splitter interval j to
// dsts[j].
type candidate struct {
	strategy    string
	coordinator topology.NodeID
	ship        func(v topology.NodeID, out *netsim.Outbox) // nil: no ship round
	holders     *holders
	dsts        []topology.NodeID
	// pick chooses the splitters from the holders' sorted samples.
	pick      func(sorted []uint64) []uint64
	splitters []uint64
}

// holders are the nodes that sample and redistribute in a sample sort:
// compute node i holds the concatenation of parts[i], views of the
// placement — nothing when it takes no part — and samples it from seeds[i].
// The parts are copied into one slice only when the plan runs. Candidates
// with the same holders share one draw and one pricing count.
type holders struct {
	parts   [][][]uint64
	seeds   []int64
	samples [][]uint64 // per compute node, once drawn
	sorted  []uint64   // every sample, ascending
	// For pricing: row i, column u of counts is how many of keys[i] lie in
	// [union[u-1], union[u]), union being every candidate's splitters. Each
	// union interval lies inside one interval of every candidate.
	union  []uint64
	counts []int
}

// layout lays a candidate out for an instance.
type layout func(in *instance) candidate

// sampleSort is the sample sort in which every node holds its own fragment
// and node order[j] receives key interval j.
func (in *instance) sampleSort(strategy string, coordinator topology.NodeID, pick func(sorted []uint64) []uint64) candidate {
	return candidate{strategy: strategy, coordinator: coordinator, holders: in.every, dsts: in.order, pick: pick}
}

// rounds is how many rounds the candidate runs.
func (c *candidate) rounds() int {
	n := 1
	if c.holders != nil {
		n = 3
	}
	if c.ship != nil {
		n++
	}
	return n
}

// planSort lays out one candidate per layout and runs the cheapest on one
// engine; a single candidate runs unpriced. Holder j samples at the rate
// SampleRate gives, from seed + j·stride, once for every candidate it holds
// for, and the splitters each candidate picks from the pooled samples are
// those its coordinator would pick from its inbox.
func planSort(tr *topology.Tree, data dataset.Placement, seed uint64, stride int64, eopts []netsim.Option, layouts ...layout) (*Result, error) {
	in, err := newInstance(tr, data, seed, stride)
	if err != nil {
		return nil, err
	}
	cands := make([]candidate, len(layouts))
	for i, lay := range layouts {
		cands[i] = lay(in)
	}
	if in.total == 0 { // nothing moves
		return &Result{PerNode: make([][]uint64, len(in.nodes)), Order: in.order,
			Report: &netsim.Report{Tree: tr}, Strategy: cands[0].strategy}, nil
	}
	e := netsim.NewEngine(tr, eopts...)
	rho := SampleRate(len(in.nodes), in.total)
	for i := range cands {
		if h := cands[i].holders; h != nil {
			if h.samples == nil {
				h.draw(e.Pool(), rho)
			}
			cands[i].splitters = cands[i].pick(h.sorted)
		}
	}
	best := &cands[0]
	if len(cands) > 1 {
		best = cheapest(e, in, cands)
	}
	for r := range best.rounds() {
		x := e.Exchange()
		best.planRound(x, r, in, false)
		x.Execute()
	}
	// Every compute node sorts what it received, on the engine's pool, one
	// after the other, handing one radix scratch buffer along.
	res := &Result{PerNode: make([][]uint64, len(in.nodes)), Order: in.order, Strategy: best.strategy}
	var tmp []uint64
	for i, v := range in.nodes {
		res.PerNode[i], tmp = e.Pool().SortUint64(e.Inbox(v).Keys(netsim.TagData), tmp)
	}
	res.Report = e.Report()
	return res, nil
}

// draw draws every holder's Bernoulli(ρ) sample, from a generator of its
// own seed, and their pooled ascending order, which is what a coordinator
// sorts once they have arrived.
func (h *holders) draw(pool *par.Pool, rho float64) {
	h.samples = make([][]uint64, len(h.parts))
	pool.ForEach("sorting sample", len(h.parts), func(i int) {
		if h.size(i) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(h.seeds[i]))
		for _, part := range h.parts[i] {
			for _, x := range part {
				if rng.Float64() < rho {
					h.samples[i] = append(h.samples[i], x)
				}
			}
		}
	})
	h.sorted, _ = pool.SortUint64(slices.Concat(h.samples...), nil)
}

// planRound queues round r of the candidate: a gather's one round, or a
// sample sort's ship round, samples to the coordinator, splitter broadcast
// and redistribution by the splitters — priced from the holders' interval
// counts, or laid out key by key to run.
func (c *candidate) planRound(x *netsim.Exchange, r int, in *instance, priced bool) {
	if c.ship != nil {
		if r == 0 {
			x.Plan(c.ship)
			return
		}
		r--
	}
	h := c.holders
	switch {
	case h == nil: // every node ships its whole fragment
		x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
			if frag := in.data[in.t.ComputeIndex(v)]; len(frag) > 0 {
				out.Send(c.coordinator, netsim.TagData, frag)
			}
		})
	case r == 0:
		x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
			if s := h.samples[in.t.ComputeIndex(v)]; len(s) > 0 {
				out.Send(c.coordinator, netsim.TagSample, s)
			}
		})
	case r == 1:
		if len(c.splitters) == 0 {
			return
		}
		dsts := make([]topology.NodeID, 0, len(c.dsts)-1)
		for _, v := range c.dsts {
			if v != c.coordinator {
				dsts = append(dsts, v)
			}
		}
		x.Out(c.coordinator).Multicast(dsts, netsim.TagSplitter, c.splitters)
	case priced:
		h.planRedistribute(x, in, c.dsts, c.splitters)
	default:
		// The keys of splitter interval j go to dsts[j] in one message.
		x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
			keys := h.keys(in.t.ComputeIndex(v))
			bucket := make([]int32, len(keys))
			for j, k := range keys {
				bucket[j] = int32(bucketOf(k, c.splitters))
			}
			place.Scatter(out, netsim.TagData, keys, 1, bucket, len(c.dsts), place.Targets{To: c.dsts})
		})
	}
}

// cheapest prices every candidate's rounds on e and returns the cheapest,
// the one with fewer rounds among equals, then the first.
func cheapest(e *netsim.Engine, in *instance, cands []candidate) *candidate {
	var union []uint64
	for _, c := range cands {
		union = append(union, c.splitters...)
	}
	slices.Sort(union)
	union = slices.Compact(union)
	for _, c := range cands {
		if h := c.holders; h != nil && h.counts == nil {
			h.count(e.Pool(), union)
		}
	}
	var best *candidate
	var bestCost float64
	for i := range cands {
		c := &cands[i]
		var cost float64
		for r := range c.rounds() {
			x := e.Exchange()
			c.planRound(x, r, in, true)
			price, _ := x.Price()
			cost += price
		}
		if best == nil || cost < bestCost || cost == bestCost && c.rounds() < best.rounds() {
			best, bestCost = c, cost
		}
	}
	return best
}

// count makes the one bucket pass over every held key that prices the
// redistribution of all candidates.
func (h *holders) count(pool *par.Pool, union []uint64) {
	w := len(union) + 1
	h.union, h.counts = union, make([]int, len(h.parts)*w)
	pool.ForEach("sorting price", len(h.parts), func(i int) {
		row := h.counts[i*w : (i+1)*w]
		for _, part := range h.parts[i] {
			for _, x := range part {
				row[bucketOf(x, union)]++
			}
		}
	})
}

// size is how many keys compute node i holds.
func (h *holders) size(i int) int {
	n := 0
	for _, part := range h.parts[i] {
		n += len(part)
	}
	return n
}

// keys is what compute node i holds, in one slice: its one part, or a copy
// of its parts in order.
func (h *holders) keys(i int) []uint64 {
	if len(h.parts[i]) == 1 {
		return h.parts[i][0]
	}
	return slices.Concat(h.parts[i]...)
}

// planRedistribute queues the redistribution by the given splitters from
// the counts alone: holder i sends dsts[j] as many keys as it holds in
// interval j, cut as prefixes of its parts. Price reads only lengths, and a
// path costs the same for one message as for several adding up to it.
func (h *holders) planRedistribute(x *netsim.Exchange, in *instance, dsts []topology.NodeID, splitters []uint64) {
	w := len(h.union) + 1
	// Union interval u lies in the splitters' interval bucket[u]: a key x in
	// [union[u-1], union[u]) has exactly the splitters up to union[u-1] at or
	// below it.
	bucket := make([]int, w)
	for u := 1; u < w; u++ {
		bucket[u] = bucketOf(h.union[u-1], splitters)
	}
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := in.t.ComputeIndex(v)
		row := h.counts[i*w : (i+1)*w]
		send := func(j, k int) {
			for _, part := range h.parts[i] {
				if n := min(k, len(part)); n > 0 {
					out.Send(dsts[j], netsim.TagData, part[:n])
					k -= n
				}
			}
		}
		j, k := 0, 0
		for u, c := range row {
			if bucket[u] != j {
				send(j, k)
				j, k = bucket[u], 0
			}
			k += c
		}
		send(j, k)
	})
}
