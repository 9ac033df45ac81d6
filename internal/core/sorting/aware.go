package sorting

import (
	"math/rand"

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
	return splitterSort(t, data, seed, true, opts)
}

// CapacitySortFlat is the topology-oblivious counterpart: the identical
// protocol with uniform key-range weights and the leftmost node as
// coordinator, as on a flat network. It exists so the capacity lever can
// be measured in isolation (same sampling, same splitter selection, same
// rounds).
func CapacitySortFlat(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return splitterSort(t, data, seed, false, opts)
}

func splitterSort(tr *topology.Tree, data dataset.Placement, seed uint64, aware bool, eopts []netsim.Option) (*Result, error) {
	in, err := newInstance(tr, data)
	if err != nil {
		return nil, err
	}
	order := tr.LeftToRight()
	strategy := "sort-flat"
	if aware {
		strategy = "sort-aware"
	}
	if in.total == 0 {
		return &Result{
			PerNode:  make([][]uint64, len(in.nodes)),
			Order:    order,
			Report:   netsim.NewEngine(tr).Report(),
			Strategy: strategy,
		}, nil
	}
	idx := in.indexOf()
	p := int64(len(in.nodes))

	// Key-range weights, indexed along the left-to-right ordering.
	weights := place.Uniform(len(order))
	coordinator := order[0]
	if aware {
		caps := place.Capacities(tr) // ComputeNodes order
		best := 0
		for j, v := range order {
			weights[j] = caps[idx[v]]
			if weights[j] > weights[best] {
				best = j
			}
		}
		coordinator = order[best]
	}

	rho := SampleRate(int(p), in.total)
	e := netsim.NewEngine(tr, eopts...)

	// Round 1: sample and send to the coordinator.
	sampleSets := make([][]uint64, len(in.nodes))
	for i := range in.data {
		rng := rand.New(rand.NewSource(int64(seed) + int64(i)*15485863))
		for _, x := range in.data[i] {
			if rng.Float64() < rho {
				sampleSets[i] = append(sampleSets[i], x)
			}
		}
	}
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := idx[v]
		if len(sampleSets[i]) > 0 {
			out.Send(coordinator, netsim.TagSample, sampleSets[i])
		}
	})
	x.Execute()

	// Round 2: coordinator broadcasts the capacity-apportioned splitters.
	samples := sortedSamples(e, coordinator)
	splitters := place.Splitters(samples, weights)
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
		for j, b := range bucketKeys(in.data[idx[v]], splitters, int(p)) {
			if len(b) > 0 {
				out.Send(order[j], netsim.TagData, b)
			}
		}
	})
	x.Execute()

	return &Result{
		PerNode:  sortReceived(e, in.nodes),
		Order:    order,
		Report:   e.Report(),
		Strategy: strategy,
	}, nil
}
