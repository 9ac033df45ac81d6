// Package dataset generates workloads and initial data placements for the
// topology-aware MPC experiments.
//
// A Placement assigns each compute node its initial fragment X0(v); the
// fragments always partition the input (the model assumes no initial
// duplication). Placement strategies control the N_v statistics that drive
// both the algorithms and the lower bounds: uniform, proportional to
// arbitrary weights, Zipf-skewed, single heavy node, and the adversarial
// rank-interleaved placement used in the sorting lower bound of Theorem 6
// (Figure 5).
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"topompc/internal/hashing"
)

// Distinct returns n pairwise-distinct pseudo-random keys drawn from the
// given source. Distinctness is guaranteed by generating the keys as a
// bijective mix of a random base counter.
func Distinct(rng *rand.Rand, n int) []uint64 {
	base := rng.Uint64()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashing.Mix64(base + uint64(i))
	}
	return keys
}

// Sequential returns the keys 1..n in order; useful for sorting tests where
// ranks must be known exactly.
func Sequential(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	return keys
}

// Shuffle permutes keys in place.
func Shuffle(rng *rand.Rand, keys []uint64) {
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
}

// SetPair returns two sets R and S with the requested sizes whose
// intersection has exactly the requested size. All elements are distinct
// within and across the non-shared parts.
func SetPair(rng *rand.Rand, sizeR, sizeS, overlap int) (r, s []uint64, err error) {
	if overlap > sizeR || overlap > sizeS || overlap < 0 || sizeR < 0 || sizeS < 0 {
		return nil, nil, fmt.Errorf("dataset: invalid sizes R=%d S=%d overlap=%d", sizeR, sizeS, overlap)
	}
	all := Distinct(rng, sizeR+sizeS-overlap)
	common := all[:overlap]
	onlyR := all[overlap:sizeR]
	onlyS := all[sizeR:]
	r = append(append([]uint64{}, common...), onlyR...)
	s = append(append([]uint64{}, common...), onlyS...)
	Shuffle(rng, r)
	Shuffle(rng, s)
	return r, s, nil
}

// Placement is the initial fragment X0(v) per compute node, indexed in
// Tree.ComputeNodes() order. Fragments partition the input.
type Placement [][]uint64

// Total reports the total input size N.
func (p Placement) Total() int {
	n := 0
	for _, frag := range p {
		n += len(frag)
	}
	return n
}

// Flatten concatenates all fragments (in node order).
func (p Placement) Flatten() []uint64 {
	out := make([]uint64, 0, p.Total())
	for _, frag := range p {
		out = append(out, frag...)
	}
	return out
}

// SplitCounts splits keys into fragments of the given sizes, in order.
// The counts must sum to len(keys).
func SplitCounts(keys []uint64, counts []int) (Placement, error) {
	total := 0
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("dataset: negative count %d", c)
		}
		total += c
	}
	if total != len(keys) {
		return nil, fmt.Errorf("dataset: counts sum to %d, have %d keys", total, len(keys))
	}
	p := make(Placement, len(counts))
	off := 0
	for i, c := range counts {
		p[i] = keys[off : off+c : off+c]
		off += c
	}
	return p, nil
}

// Apportion distributes n units over len(weights) buckets proportionally to
// the weights using largest-remainder rounding, so the counts sum to
// exactly n. Weights must be non-negative and not all zero.
func Apportion(n int, weights []float64) ([]int, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("dataset: no buckets")
	}
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dataset: invalid weight %v at %d", w, i)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("dataset: all weights zero")
	}
	counts := make([]int, len(weights))
	type rem struct {
		frac float64
		idx  int
	}
	rems := make([]rem, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(n) * w / total
		counts[i] = int(math.Floor(exact))
		assigned += counts[i]
		rems[i] = rem{frac: exact - math.Floor(exact), idx: i}
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].idx < rems[j].idx
	})
	for i := 0; assigned < n; i++ {
		counts[rems[i%len(rems)].idx]++
		assigned++
	}
	return counts, nil
}

// SplitUniform splits keys evenly over p nodes (remainders go to the first
// nodes), the classic MPC assumption.
func SplitUniform(keys []uint64, p int) (Placement, error) {
	w := make([]float64, p)
	for i := range w {
		w[i] = 1
	}
	return SplitWeighted(keys, w)
}

// SplitWeighted splits keys proportionally to arbitrary non-negative
// weights (e.g. link bandwidths, node capacities).
func SplitWeighted(keys []uint64, weights []float64) (Placement, error) {
	counts, err := Apportion(len(keys), weights)
	if err != nil {
		return nil, err
	}
	return SplitCounts(keys, counts)
}

// SplitZipf splits keys over p nodes with Zipf(s)-distributed shares:
// node i receives a share proportional to 1/(i+1)^s. rng, when non-nil,
// permutes which node gets which share so the heavy node is not always the
// first one.
func SplitZipf(rng *rand.Rand, keys []uint64, p int, s float64) (Placement, error) {
	if p <= 0 {
		return nil, fmt.Errorf("dataset: need p > 0")
	}
	w := make([]float64, p)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	if rng != nil {
		rng.Shuffle(p, func(i, j int) { w[i], w[j] = w[j], w[i] })
	}
	return SplitWeighted(keys, w)
}

// SplitOneHeavy places the given fraction of keys on node heavy and spreads
// the rest evenly over the other nodes.
func SplitOneHeavy(keys []uint64, p, heavy int, frac float64) (Placement, error) {
	if heavy < 0 || heavy >= p {
		return nil, fmt.Errorf("dataset: heavy index %d out of range", heavy)
	}
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("dataset: invalid fraction %v", frac)
	}
	w := make([]float64, p)
	for i := range w {
		if i == heavy {
			w[i] = frac
		} else if p > 1 {
			w[i] = (1 - frac) / float64(p-1)
		}
	}
	return SplitWeighted(keys, w)
}

// SplitSingle places every key on one node.
func SplitSingle(keys []uint64, p, idx int) (Placement, error) {
	return SplitOneHeavy(keys, p, idx, 1)
}

// AdversarialSortPlacement builds the initial distribution of the Theorem 6
// lower-bound construction (Figure 5): the input ranks are laid out in the
// order r1, r3, ..., r(N-1), r2, r4, ..., rN and assigned consecutively to
// the compute nodes in their left-to-right order with the given per-node
// counts. Every correct sorting algorithm must then move Ω(min side) data
// across every edge.
//
// sorted must be in ascending order; counts must sum to len(sorted).
func AdversarialSortPlacement(sorted []uint64, counts []int) (Placement, error) {
	n := len(sorted)
	interleaved := make([]uint64, 0, n)
	for i := 0; i < n; i += 2 { // r1, r3, ...
		interleaved = append(interleaved, sorted[i])
	}
	for i := 1; i < n; i += 2 { // r2, r4, ...
		interleaved = append(interleaved, sorted[i])
	}
	return SplitCounts(interleaved, counts)
}
