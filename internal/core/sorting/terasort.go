package sorting

import (
	"math"

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
	return planSort(t, data, seed, 104729, opts, teraSortRanges)
}

// teraSortRanges picks TeraSort's uniform sample quantiles at the leftmost
// node.
func teraSortRanges(_ *instance, order []topology.NodeID) candidate {
	return candidate{strategy: "terasort", coordinator: order[0], pick: func(sorted []uint64) []uint64 {
		return uniformSplitters(sorted, int64(len(order)))
	}}
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

// SampleRate reports the ρ = 4|VC|/N·ln(|VC|·N) every sampling sort here
// uses for an input of size n on p nodes, clamped to 1; exported for
// experiments.
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
