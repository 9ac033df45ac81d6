package sorting

import (
	"slices"

	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// awareStride separates the sampling seeds of consecutive nodes in
// CapacitySort and CapacitySortFlat.
const awareStride = 15485863

// CapacitySort is the planned sort: it prices three candidate plans on the
// actual instance (netsim.Exchange.Price) and runs the cheapest on the same
// engine.
//
//   - Capacity splitters ("sort-aware"): the three-round sample sort (sample →
//     splitters → redistribute) with the key ranges apportioned by
//     place.Splitters in proportion to each node's bandwidth capacity
//     (place.Capacities), coordinated at the highest-capacity node. Nodes
//     behind weak cuts get small key ranges, so the redistribution ships
//     little data *into* thin subtrees.
//   - Uniform splitters ("sort-flat"): the same sort with uniform ranges and
//     the leftmost coordinator, exactly CapacitySortFlat.
//   - Gather ("gather"): one round to the heaviest holder, which sorts
//     locally. It wins when most of the data already sits behind a weak cut,
//     where key ranges cannot help: that data must leave (Theorem 6's cut
//     term), and the cheapest place for the rest is with it.
//
// Every node draws its sample once, and a splitter candidate is priced as
// the sum of its three rounds. Its redistribution is priced from each node's
// key counts per interval of the union of both candidates' splitters, one
// bucket pass per key, so no key is laid out for a plan that loses. Ties go
// to fewer rounds, then to the order above; Result.Strategy names the
// winner. The output is a valid sort either way.
func CapacitySort(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return planSort(t, data, seed, awareStride, opts, capacityRanges, uniformRanges, gatherHeaviest)
}

// CapacitySortFlat is the topology-oblivious counterpart: the three-round
// sample sort with uniform key-range weights and the leftmost node as
// coordinator, as on a flat network, run without pricing. It is
// CapacitySort's uniform candidate: same sampling, same splitter selection,
// same rounds.
func CapacitySortFlat(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return planSort(t, data, seed, awareStride, opts, uniformRanges)
}

// candidate is one plan for an instance: a sample sort, whose coordinator
// receives every node's samples and broadcasts the splitters, node order[j]
// then receiving key interval j — or, with no splitter rule, a gather at the
// coordinator.
type candidate struct {
	strategy    string
	coordinator topology.NodeID
	// pick chooses the splitters from the sorted samples; nil for a gather.
	pick      func(sorted []uint64) []uint64
	splitters []uint64
}

// layout lays a candidate out for an instance along its left-to-right order.
type layout func(in *instance, order []topology.NodeID) candidate

// capacityRanges weighs the key ranges by place.Capacities and coordinates
// at the highest-capacity node.
func capacityRanges(in *instance, order []topology.NodeID) candidate {
	caps := place.Capacities(in.t) // ComputeNodes order
	weights := make([]float64, len(order))
	best := 0
	for j, v := range order {
		weights[j] = caps[in.t.ComputeIndex(v)]
		if weights[j] > weights[best] {
			best = j
		}
	}
	return candidate{strategy: "sort-aware", coordinator: order[best], pick: func(sorted []uint64) []uint64 {
		return place.Splitters(sorted, weights)
	}}
}

// uniformRanges gives every node an equal key range and coordinates at the
// leftmost node.
func uniformRanges(_ *instance, order []topology.NodeID) candidate {
	weights := place.Uniform(len(order))
	return candidate{strategy: "sort-flat", coordinator: order[0], pick: func(sorted []uint64) []uint64 {
		return place.Splitters(sorted, weights)
	}}
}

// gatherHeaviest ships everything to the heaviest holder.
func gatherHeaviest(in *instance, _ []topology.NodeID) candidate {
	return candidate{strategy: "gather", coordinator: in.heaviest()}
}

// rounds is how many rounds the candidate runs.
func (c *candidate) rounds() int {
	if c.pick == nil {
		return 1
	}
	return 3
}

// planSort lays out one candidate per layout and runs the cheapest on one
// engine; a single candidate runs unpriced. Node i samples at the rate
// SampleRate gives, from seed + i·stride, once for every candidate, and the
// splitters each picks from the pooled samples are those its coordinator
// would pick from its inbox.
func planSort(tr *topology.Tree, data dataset.Placement, seed uint64, stride int64, eopts []netsim.Option, layouts ...layout) (*Result, error) {
	in, err := newInstance(tr, data)
	if err != nil {
		return nil, err
	}
	order := tr.LeftToRight()
	cands := make([]candidate, len(layouts))
	for i, lay := range layouts {
		cands[i] = lay(in, order)
	}
	if in.total == 0 {
		return in.emptyResult(cands[0].strategy), nil
	}
	e := netsim.NewEngine(tr, eopts...)
	samples, sorted := drawSamples(e, in, seed, stride)
	for i := range cands {
		if cands[i].pick != nil {
			cands[i].splitters = cands[i].pick(sorted)
		}
	}
	best := &cands[0]
	if len(cands) > 1 {
		best = cheapest(e, in, order, samples, cands)
	}
	// Node order[j] receives interval j.
	redistribute := func(x *netsim.Exchange, splitters []uint64) {
		x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
			sendBySplitter(out, in.data[tr.ComputeIndex(v)], splitters, order)
		})
	}
	for r := range best.rounds() {
		x := e.Exchange()
		best.planRound(x, r, in, order, samples, redistribute)
		x.Execute()
	}
	return in.result(e, order, best.strategy), nil
}

// drawSamples draws every node's Bernoulli sample and returns them with
// their pooled ascending order, which is what a coordinator sorts once they
// have arrived.
func drawSamples(e *netsim.Engine, in *instance, seed uint64, stride int64) (samples [][]uint64, sorted []uint64) {
	rho := SampleRate(len(in.nodes), in.total)
	samples = make([][]uint64, len(in.nodes))
	e.Pool().ForEach("sorting sample", len(samples), func(i int) {
		samples[i] = sample(in.data[i], int64(seed)+int64(i)*stride, rho)
	})
	n := 0
	for _, s := range samples {
		n += len(s)
	}
	pooled := make([]uint64, 0, n)
	for _, s := range samples {
		pooled = append(pooled, s...)
	}
	sorted, _ = e.Pool().SortUint64(pooled, nil)
	return samples, sorted
}

// planRound queues round r of the candidate: a gather's one round, or a
// sample sort's samples to the coordinator, its splitter broadcast to every
// other node, and the redistribution by those splitters, which the caller
// queues.
func (c *candidate) planRound(x *netsim.Exchange, r int, in *instance, order []topology.NodeID, samples [][]uint64,
	redistribute func(x *netsim.Exchange, splitters []uint64)) {
	switch {
	case c.pick == nil:
		in.planGather(x, c.coordinator)
	case r == 0:
		x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
			if s := samples[in.t.ComputeIndex(v)]; len(s) > 0 {
				out.Send(c.coordinator, netsim.TagSample, s)
			}
		})
	case r == 1:
		if len(c.splitters) == 0 || len(order) < 2 {
			return
		}
		dsts := make([]topology.NodeID, 0, len(order)-1)
		for _, v := range order {
			if v != c.coordinator {
				dsts = append(dsts, v)
			}
		}
		x.Out(c.coordinator).Multicast(dsts, netsim.TagSplitter, c.splitters)
	default:
		redistribute(x, c.splitters)
	}
}

// cheapest prices every candidate's rounds on e and returns the cheapest,
// the one with fewer rounds among equals, then the first.
func cheapest(e *netsim.Engine, in *instance, order []topology.NodeID, samples [][]uint64, cands []candidate) *candidate {
	counts := countIntervals(e, in, cands)
	redistribute := func(x *netsim.Exchange, splitters []uint64) {
		counts.planRedistribute(x, in, order, splitters)
	}
	var best *candidate
	var bestCost float64
	for i := range cands {
		c := &cands[i]
		var cost float64
		for r := range c.rounds() {
			x := e.Exchange()
			c.planRound(x, r, in, order, samples, redistribute)
			price, _ := x.Price()
			cost += price
		}
		if best == nil || cost < bestCost || cost == bestCost && c.rounds() < best.rounds() {
			best, bestCost = c, cost
		}
	}
	return best
}

// intervalCounts holds how many keys every compute node has in each
// interval of the union of the candidates' splitters: row i, column u counts
// node i's keys in [union[u-1], union[u]). Every candidate's splitters are
// among the union's, so each union interval lies inside one interval of
// every candidate.
type intervalCounts struct {
	union []uint64
	n     []int
}

// countIntervals makes the one bucket pass over every key that prices the
// redistribution of all candidates.
func countIntervals(e *netsim.Engine, in *instance, cands []candidate) *intervalCounts {
	var union []uint64
	for _, c := range cands {
		union = append(union, c.splitters...)
	}
	slices.Sort(union)
	union = slices.Compact(union)
	w := len(union) + 1
	n := make([]int, len(in.nodes)*w)
	e.Pool().ForEach("sorting price", len(in.nodes), func(i int) {
		row := n[i*w : (i+1)*w]
		for _, x := range in.data[i] {
			row[bucketOf(x, union)]++
		}
	})
	return &intervalCounts{union: union, n: n}
}

// planRedistribute queues the redistribution by the given splitters from
// the counts alone: node i sends order[j] a message as long as the keys it
// holds in interval j, the right length of its own fragment's prefix, which
// is all Price reads.
func (ic *intervalCounts) planRedistribute(x *netsim.Exchange, in *instance, order []topology.NodeID, splitters []uint64) {
	w := len(ic.union) + 1
	// Union interval u lies in the splitters' interval bucket[u]: a key x in
	// [union[u-1], union[u]) has exactly the splitters up to union[u-1] at or
	// below it.
	bucket := make([]int, w)
	for u := 1; u < w; u++ {
		bucket[u] = bucketOf(ic.union[u-1], splitters)
	}
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := in.t.ComputeIndex(v)
		frag, row := in.data[i], ic.n[i*w:(i+1)*w]
		j, k := 0, 0
		for u, c := range row {
			if bucket[u] != j {
				if k > 0 {
					out.Send(order[j], netsim.TagData, frag[:k])
				}
				j, k = bucket[u], 0
			}
			k += c
		}
		if k > 0 {
			out.Send(order[j], netsim.TagData, frag[:k])
		}
	})
}
