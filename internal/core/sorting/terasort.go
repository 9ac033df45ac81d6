package sorting

import (
	"math"
	"math/rand"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// TeraSort is the classic topology-oblivious baseline (O'Malley 2008, as
// formalized in §5.2): every node samples at rate ρ = 4|VC|/N·ln(|VC|·N)
// and sends samples to a coordinator, the coordinator broadcasts uniform
// sample quantiles as splitters, and all nodes redistribute so node v_i
// receives the i-th key range. All |VC| nodes participate with equal
// shares regardless of bandwidth or initial placement.
func TeraSort(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, data)
	if err != nil {
		return nil, err
	}
	order := t.LeftToRight()
	if in.total == 0 {
		return &Result{
			PerNode:  make([][]uint64, len(in.nodes)),
			Order:    order,
			Report:   netsim.NewEngine(t).Report(),
			Strategy: "terasort",
		}, nil
	}
	idx := in.indexOf()
	p := int64(len(in.nodes))
	coordinator := order[0]

	rho := 4 * float64(p) / float64(in.total) * math.Log(float64(p)*float64(in.total))
	if rho > 1 {
		rho = 1
	}

	e := netsim.NewEngine(t, opts...)

	// Round 1: sample and send to the coordinator.
	sampleSets := make([][]uint64, len(in.nodes))
	for i := range in.data {
		rng := rand.New(rand.NewSource(int64(seed) + int64(i)*104729))
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

	// Round 2: coordinator broadcasts |VC|−1 uniform splitters.
	samples := sortedSamples(e, coordinator)
	splitters := uniformSplitters(samples, p)
	x = e.Exchange()
	if len(splitters) > 0 && len(order) > 1 {
		x.Out(coordinator).Multicast(order[1:], netsim.TagSplitter, splitters)
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
		Strategy: "terasort",
	}, nil
}

// uniformSplitters picks the p−1 uniform quantiles of the sorted samples
// (TeraSort's b_i = the i·⌈s/p⌉-th smallest sample).
func uniformSplitters(sorted []uint64, p int64) []uint64 {
	if p <= 1 {
		return nil
	}
	s := int64(len(sorted))
	if s == 0 {
		out := make([]uint64, p-1)
		for i := range out {
			out[i] = math.MaxUint64
		}
		return out
	}
	step := (s + p - 1) / p
	if step == 0 {
		step = 1
	}
	out := make([]uint64, 0, p-1)
	for i := int64(1); i < p; i++ {
		pos := i * step
		if pos >= s {
			out = append(out, math.MaxUint64)
			continue
		}
		out = append(out, sorted[pos-1])
	}
	return out
}

// SampleRate reports the ρ used by both protocols for an input of size n on
// p nodes, clamped to 1; exported for experiments.
func SampleRate(p int, n int64) float64 {
	if n == 0 {
		return 0
	}
	rho := 4 * float64(p) / float64(n) * math.Log(float64(p)*float64(n))
	if rho > 1 {
		return 1
	}
	return rho
}
