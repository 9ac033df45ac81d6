package multijoin

import (
	"math"
	"math/rand"
	"testing"

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

// zipfRelation draws m tuples and deals them over p nodes with the
// benchmark's Zipf-like weights.
func zipfRelation(m, p int, draw func() Tuple) Placement {
	w := make([]float64, p)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(p-i), 1.2)
		total += w[i]
	}
	out := make(Placement, p)
	for i := range out {
		for n := int(float64(m) * w[i] / total); n > 0; n-- {
			out[i] = append(out[i], draw())
		}
	}
	return out
}

// BenchmarkTriangle20k is the analytics-fanout triangle op without its
// verification and bound: three relations of 20k/3 random pairs over a
// domain that keeps the expected triangle count near the relation size.
func BenchmarkTriangle20k(b *testing.B) {
	tr := fanoutFabric(b)
	rng := rand.New(rand.NewSource(1))
	m := 20_000 / 3
	dom := int(math.Round(math.Pow(float64(m), 2.0/3.0)))
	var rels [3]Placement
	for j := range rels {
		rels[j] = zipfRelation(m, tr.NumCompute(), func() Tuple {
			return Tuple{A: uint64(rng.Intn(dom)), B: uint64(rng.Intn(dom))}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Triangle(tr, rels[0], rels[1], rels[2], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStar100k is the analytics-fanout starjoin op without its
// verification and bound: four relations of 25k tuples, each join value
// about four times per relation.
func BenchmarkStar100k(b *testing.B) {
	tr := fanoutFabric(b)
	rng := rand.New(rand.NewSource(1))
	m := 100_000 / 4
	rels := make([]Placement, 4)
	for j := range rels {
		rels[j] = zipfRelation(m, tr.NumCompute(), func() Tuple {
			return Tuple{A: uint64(rng.Intn(m / 4)), B: uint64(rng.Uint32())}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Star(tr, rels, 1); err != nil {
			b.Fatal(err)
		}
	}
}
