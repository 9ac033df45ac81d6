package sorting

import (
	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// awareStride separates the sampling seeds of consecutive nodes in
// CapacitySort and CapacitySortFlat.
const awareStride = 15485863

// CapacitySort is the planned sort: it prices four candidate plans on the
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
//   - Weighted TeraSort ("wts"): the four rounds of WTSUnpriced with
//     proportional light routing, which ranges keys by the heavy nodes'
//     working sets instead of their capacities.
//
// Every holder draws its sample once per candidate holding it — the splitter
// sorts share one draw, wTS's heavy nodes draw their own — and a sample sort
// is priced as the sum of its rounds. Its redistribution is priced from each
// holder's key counts per interval of the union of all candidates'
// splitters, one bucket pass per held key, on views of the placement, so no
// key is laid out or copied for a plan that loses. Ties go to fewer rounds,
// then to the order above; Result.Strategy names the winner. The output is a
// valid sort either way.
func CapacitySort(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return planSort(t, data, seed, awareStride, opts, capacityRanges, uniformRanges, gatherHeaviest, weightedRanges(ProportionalLight))
}

// CapacitySortFlat is the topology-oblivious counterpart: the three-round
// sample sort with uniform key-range weights and the leftmost node as
// coordinator, as on a flat network, run without pricing. It is
// CapacitySort's uniform candidate: same sampling, same splitter selection,
// same rounds.
func CapacitySortFlat(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return planSort(t, data, seed, awareStride, opts, uniformRanges)
}

// capacityRanges weighs the key ranges by place.Capacities and coordinates
// at the highest-capacity node.
func capacityRanges(in *instance) candidate {
	caps := place.Capacities(in.t) // ComputeNodes order
	weights := make([]float64, len(in.order))
	best := 0
	for j, v := range in.order {
		weights[j] = caps[in.t.ComputeIndex(v)]
		if weights[j] > weights[best] {
			best = j
		}
	}
	return in.sampleSort("sort-aware", in.order[best], func(sorted []uint64) []uint64 {
		return place.Splitters(sorted, weights)
	})
}

// uniformRanges gives every node an equal key range and coordinates at the
// leftmost node.
func uniformRanges(in *instance) candidate {
	weights := place.Uniform(len(in.order))
	return in.sampleSort("sort-flat", in.order[0], func(sorted []uint64) []uint64 {
		return place.Splitters(sorted, weights)
	})
}

// gatherHeaviest ships everything to the heaviest holder.
func gatherHeaviest(in *instance) candidate {
	return candidate{strategy: "gather", coordinator: in.heaviest()}
}
