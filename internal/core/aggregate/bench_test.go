package aggregate

import (
	"math"
	"math/rand"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/topology"
)

// fanoutFabric is the repo benchmark's analytics-fanout network: the
// Gomory–Hu tree of a 64-host randomized-fanout overlay.
func fanoutFabric(tb testing.TB) *topology.Tree {
	tb.Helper()
	g, err := topology.RandomizedFanout(rand.New(rand.NewSource(7)), 64, 2, 0.5, 4)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := topology.FromGraph(g)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// zipfCounts draws n records over n/8 groups, each of value 1, and deals
// them over p nodes with the benchmark's Zipf-like weights.
func zipfCounts(tb testing.TB, n, p int) Placement {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	pool := dataset.Distinct(rng, n/8)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = pool[rng.Intn(len(pool))]
	}
	w := make([]float64, p)
	for i := range w {
		w[i] = 1 / math.Pow(float64(p-i), 1.2)
	}
	frags, err := dataset.SplitWeighted(keys, w)
	if err != nil {
		tb.Fatal(err)
	}
	out := make(Placement, p)
	for i, frag := range frags {
		for _, k := range frag {
			out[i] = append(out[i], Pair{Group: k, Value: 1})
		}
	}
	return out
}

// BenchmarkCombinerTree100k is the analytics-fanout agg-tree2 op without
// its verification and bound.
func BenchmarkCombinerTree100k(b *testing.B) {
	tr := fanoutFabric(b)
	data := zipfCounts(b, 100_000, tr.NumCompute())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CombinerTree(tr, data, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanned100k is the aggregate row's planned protocol on the same
// input: it prices its candidates and runs the cheapest.
func BenchmarkPlanned100k(b *testing.B) {
	tr := fanoutFabric(b)
	data := zipfCounts(b, 100_000, tr.NumCompute())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Planned(tr, data, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerBound100k is the bound of the same input.
func BenchmarkLowerBound100k(b *testing.B) {
	tr := fanoutFabric(b)
	data := zipfCounts(b, 100_000, tr.NumCompute())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LowerBound(tr, data)
	}
}
