package intersect

import (
	"math"
	"math/rand"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/topology"
)

// BenchmarkTreePlan is the primitives-skew intersect op without its
// verification: 2×250k keys on the narrow two-tier, dealt with the
// benchmark's Zipf-like weights. One round and a sort-merge per home, so the
// sender-side partition of the fragments is most of the call.
func BenchmarkTreePlan(b *testing.B) {
	tr, err := topology.TwoTier([]int{4, 4, 4}, []float64{4, 2, 1}, 8)
	if err != nil {
		b.Fatal(err)
	}
	rk, sk, err := dataset.SetPair(rand.New(rand.NewSource(1)), 250_000, 250_000, 25_000)
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float64, tr.NumCompute())
	for i := range w {
		w[i] = 1 / math.Pow(float64(len(w)-i), 1.2)
	}
	r, err := dataset.SplitWeighted(rk, w)
	if err != nil {
		b.Fatal(err)
	}
	s, err := dataset.SplitWeighted(sk, w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Tree(tr, r, s, 1); err != nil {
			b.Fatal(err)
		}
	}
}
