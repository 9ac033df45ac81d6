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

// teraSortRanges picks TeraSort's uniform sample quantiles — one fine
// interval per node — at the leftmost node.
func teraSortRanges(in *instance) candidate {
	ones := make([]int64, len(in.order))
	for j := range ones {
		ones[j] = 1
	}
	return in.sampleSort("terasort", in.order[0], func(sorted []uint64) []uint64 {
		return chooseSplitters(sorted, int64(len(in.order)), ones)
	})
}

// chooseSplitters cuts the sorted samples into p fine quantile intervals of
// ⌈s/p⌉ samples and allots counts[j] ≥ 1 of them to destination j: the
// j-th splitter is the (c_1+…+c_j)·⌈s/p⌉-th smallest sample, or MaxUint64
// past the last sample. Unit counts give TeraSort's uniform quantiles
// b_i = the i·⌈s/p⌉-th smallest sample; wTS's c_j = ⌈|VC|·M_j/N⌉ gives
// heavy node j a range in proportion to its working set M_j.
func chooseSplitters(sorted []uint64, p int64, counts []int64) []uint64 {
	if len(counts) <= 1 {
		return nil
	}
	s := int64(len(sorted))
	step := (s + p - 1) / p
	splitters := make([]uint64, 0, len(counts)-1)
	var cum int64
	for _, c := range counts[:len(counts)-1] {
		cum += c
		if pos := cum * step; pos < s { // pos is the 1-indexed rank
			splitters = append(splitters, sorted[pos-1])
		} else {
			splitters = append(splitters, math.MaxUint64)
		}
	}
	return splitters
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
