package sorting

import (
	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// CapacitySort is the topology-aware splitter sort enabled by the place
// engine: the classic three-round sample sort (sample → splitters →
// redistribute), but with the key ranges apportioned by place.Splitters
// proportionally to each node's bandwidth capacity (place.Capacities)
// instead of uniformly. Nodes behind weak cuts get small key ranges, so
// the sorted redistribution ships little data across thin uplinks — the
// ordered-key analogue of capacity-weighted hashing. The coordinator is
// the highest-capacity node, so the sample gather and splitter broadcast
// also avoid weak cuts.
//
// The output is a valid sort (node v_i's range precedes v_j's for i < j
// along the left-to-right ordering); capacity weighting only reshapes how
// much of the key space each node owns. Complements WTS, whose lever is
// the initial data sizes N_v (light→heavy shipping) rather than the link
// bandwidths.
func CapacitySort(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return splitterSort(t, data, seed, sampleSort{strategy: "sort-aware", stride: 15485863, aware: true, splitters: place.Splitters}, opts)
}

// CapacitySortFlat is the topology-oblivious counterpart: the identical
// protocol with uniform key-range weights and the leftmost node as
// coordinator, as on a flat network. It exists so the capacity lever can
// be measured in isolation (same sampling, same splitter selection, same
// rounds).
func CapacitySortFlat(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return splitterSort(t, data, seed, sampleSort{strategy: "sort-flat", stride: 15485863, splitters: place.Splitters}, opts)
}

// sampleSort is what tells the three-round sample sorts apart.
type sampleSort struct {
	strategy string
	stride   int64 // between the sampling seeds of consecutive nodes
	// aware weighs the key ranges by place.Capacities and coordinates at
	// the highest-capacity node, instead of uniformly and at the leftmost.
	aware bool
	// splitters picks the splitters from the sorted samples, given the
	// key-range weights along the left-to-right ordering.
	splitters func(sorted []uint64, weights []float64) []uint64
}

// splitterSort is the three-round sample sort: every node samples at rate
// ρ and sends its samples to the coordinator, the coordinator broadcasts
// the splitters, and all nodes redistribute so that node order[j] receives
// the j-th key range and sorts it.
func splitterSort(tr *topology.Tree, data dataset.Placement, seed uint64, kind sampleSort, eopts []netsim.Option) (*Result, error) {
	in, err := newInstance(tr, data)
	if err != nil {
		return nil, err
	}
	if in.total == 0 {
		return in.emptyResult(kind.strategy), nil
	}
	order := tr.LeftToRight()

	// Key-range weights, indexed along the left-to-right ordering.
	weights := place.Uniform(len(order))
	coordinator := order[0]
	if kind.aware {
		caps := place.Capacities(tr) // ComputeNodes order
		best := 0
		for j, v := range order {
			weights[j] = caps[tr.ComputeIndex(v)]
			if weights[j] > weights[best] {
				best = j
			}
		}
		coordinator = order[best]
	}

	rho := SampleRate(len(in.nodes), in.total)
	e := netsim.NewEngine(tr, eopts...)

	// Round 1: sample and send to the coordinator.
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := tr.ComputeIndex(v)
		if samples := sample(in.data[i], int64(seed)+int64(i)*kind.stride, rho); len(samples) > 0 {
			out.Send(coordinator, netsim.TagSample, samples)
		}
	})
	x.Execute()

	// Round 2: the coordinator broadcasts the splitters.
	splitters := kind.splitters(sortedSamples(e, coordinator), weights)
	x = e.Exchange()
	if len(splitters) > 0 && len(order) > 1 {
		dsts := make([]topology.NodeID, 0, len(order)-1)
		for _, v := range order {
			if v != coordinator {
				dsts = append(dsts, v)
			}
		}
		x.Out(coordinator).Multicast(dsts, netsim.TagSplitter, splitters)
	}
	x.Execute()

	// Round 3: redistribute by splitter interval; node order[j] receives
	// interval j. Everyone sorts locally.
	x = e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		sendBySplitter(out, in.data[tr.ComputeIndex(v)], splitters, order)
	})
	x.Execute()

	return &Result{
		PerNode:  sortReceived(e, in.nodes),
		Order:    order,
		Report:   e.Report(),
		Strategy: kind.strategy,
	}, nil
}
