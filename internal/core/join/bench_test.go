package join

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

// zipfRows deals keys over p nodes with the benchmark's Zipf-like weights,
// as (key, key) rows.
func zipfRows(tb testing.TB, keys []uint64, p int) Placement {
	tb.Helper()
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
			out[i] = append(out[i], Tuple{Key: k, Payload: k})
		}
	}
	return out
}

// BenchmarkJoinTree200k is the analytics-fanout join op without its
// verification: 50k ⋈ 150k rows sharing 5k keys.
func BenchmarkJoinTree200k(b *testing.B) {
	tr := fanoutFabric(b)
	rk, sk, err := dataset.SetPair(rand.New(rand.NewSource(1)), 50_000, 150_000, 5_000)
	if err != nil {
		b.Fatal(err)
	}
	r, s := zipfRows(b, rk, tr.NumCompute()), zipfRows(b, sk, tr.NumCompute())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Tree(tr, r, s, 1); err != nil {
			b.Fatal(err)
		}
	}
}
