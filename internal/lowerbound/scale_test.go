package lowerbound_test

import (
	"math/rand"
	"testing"
	"time"

	"topompc/internal/core/aggregate"
	"topompc/internal/core/multijoin"
	"topompc/internal/lowerbound"
	"topompc/internal/topology"
)

func groupData(rng *rand.Rand, p, records, groups int) aggregate.Placement {
	data := make(aggregate.Placement, p)
	for i := 0; i < records; i++ {
		n := rng.Intn(p)
		data[n] = append(data[n], aggregate.Pair{Group: uint64(rng.Intn(groups)), Value: 1})
	}
	return data
}

func starData(rng *rand.Rand, k, p, records, dom int) []multijoin.Placement {
	rels := make([]multijoin.Placement, k)
	for j := range rels {
		rels[j] = make(multijoin.Placement, p)
		for i := 0; i < records/k; i++ {
			n := rng.Intn(p)
			rels[j][n] = append(rels[j][n], multijoin.Tuple{A: uint64(rng.Intn(dom)), B: rng.Uint64()})
		}
	}
	return rels
}

// TestBoundsAtDataPlaneScale: the aggregation bound and the star cut
// counts on a tree the size the data plane runs (10⁵ nodes, 10⁵ edges)
// take seconds. Counting per edge would cost ~10¹⁰ map operations; the
// deadline fails any implementation that is |E| × a pass over the input.
func TestBoundsAtDataPlaneScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-node tree")
	}
	const p, records = 50_000, 200_000
	spine := make([]float64, p-1)
	for i := range spine {
		spine[i] = 1 + float64(i%7)
	}
	tree, err := topology.Caterpillar(spine, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	start := time.Now()

	// Every group sits on ~8 nodes spread over the whole spine, so most
	// spine edges are spanned by most groups.
	agg := lowerbound.Spanning(tree, aggregate.GroupHolders(tree, groupData(rng, p, records, records/8)))
	if agg.Value <= 0 || agg.Edge == topology.NoEdge {
		t.Fatalf("aggregation bound %v at edge %d", agg.Value, agg.Edge)
	}

	ix := multijoin.IndexStar(starData(rng, 4, p, records, records/16))
	ref := ix.Reference()
	star := lowerbound.Multijoin(tree, ref.Count, ref.MaxDeg, ix.CutCounts(tree))
	if ref.Count <= 0 || star.Value <= 0 {
		t.Fatalf("star join of %d rows has bound %v", ref.Count, star.Value)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("bounds took %v", took)
	}
}

// The three benchmarks run the swept bounds at the sizes of the repo
// benchmark's analytics-fanout workload: its 64-host Gomory–Hu fanout
// fabric, 10⁵ aggregation records in n/8 groups, a 4-way star join of 10⁵
// tuples with ~4 per value and relation, a triangle join of 2·10⁴ tuples
// over a domain of m^(2/3) values.
func fanoutFabric(b *testing.B) *topology.Tree {
	g, err := topology.RandomizedFanout(rand.New(rand.NewSource(7)), 64, 2, 0.5, 4)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := topology.FromGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

var sink float64

func BenchmarkAggregateLowerBound(b *testing.B) {
	tree := fanoutFabric(b)
	data := groupData(rand.New(rand.NewSource(1)), tree.NumCompute(), 100_000, 12_500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = aggregate.LowerBound(tree, data)
	}
}

func BenchmarkStarCutCounts(b *testing.B) {
	tree := fanoutFabric(b)
	rels := starData(rand.New(rand.NewSource(1)), 4, tree.NumCompute(), 100_000, 6_250)
	ref := multijoin.StarReference(rels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = lowerbound.Multijoin(tree, ref.Count, ref.MaxDeg, multijoin.StarCutCounts(tree, rels)).Value
	}
}

func BenchmarkTriangleCutCounts(b *testing.B) {
	tree := fanoutFabric(b)
	rng := rand.New(rand.NewSource(1))
	gen := func() multijoin.Placement {
		pl := make(multijoin.Placement, tree.NumCompute())
		for i := 0; i < 6_666; i++ {
			n := rng.Intn(len(pl))
			pl[n] = append(pl[n], multijoin.Tuple{A: uint64(rng.Intn(354)), B: uint64(rng.Intn(354))})
		}
		return pl
	}
	r, s, t := gen(), gen(), gen()
	ref := multijoin.TriangleReference(r, s, t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = lowerbound.Multijoin(tree, ref.Count, ref.MaxDeg, multijoin.TriangleCutCounts(tree, r, s, t)).Value
	}
}
