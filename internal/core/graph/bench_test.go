package graph

import (
	"math/rand"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// benchInput builds a deterministic contraction workload: a caterpillar
// topology with n-vertex G(n,p) edges spread round-robin across its
// compute nodes.
func benchInput(tb testing.TB, n int, p float64) (*topology.Tree, Placement) {
	tb.Helper()
	tr, err := topology.Caterpillar([]float64{4, 8, 16, 8, 4}, 2)
	if err != nil {
		tb.Fatal(err)
	}
	packed, err := dataset.GNP(rand.New(rand.NewSource(11)), n, p)
	if err != nil {
		tb.Fatal(err)
	}
	return tr, placeEdges(packed, tr.NumCompute())
}

// BenchmarkCCContraction measures the int-indexed contraction data plane.
func BenchmarkCCContraction(b *testing.B) {
	tr, edges := benchInput(b, 10_000, 4.0/10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CC(tr, edges, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCCContraction100k is the scale point the performance target is
// pinned at: 10⁵ vertices, average degree 4.
func BenchmarkCCContraction100k(b *testing.B) {
	tr, edges := benchInput(b, 100_000, 4.0/100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CC(tr, edges, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpanningForest100k is the witness path on the same input: the
// same contraction with (b, wu, wv)-keyed minima and four-word proposals.
func BenchmarkSpanningForest100k(b *testing.B) {
	tr, edges := benchInput(b, 100_000, 4.0/100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SpanningForest(tr, edges, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCCDense is the graph-dense benchmark workload at 1/10 scale: the
// four connectivity variants on FatTree(3,4,16,0.25) with G(10⁴, 20/n)
// spread round-robin over the 64 leaves, lean stats, two workers. At this
// size every per-home need list is longer than a bitmap over the vertex
// universe has words, so the contraction's index lists dedup by bitmap.
func BenchmarkCCDense(b *testing.B) {
	tr, err := topology.FatTree(3, 4, 16, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	const n = 10_000
	packed, err := dataset.GNP(rand.New(rand.NewSource(1)), n, 20.0/n)
	if err != nil {
		b.Fatal(err)
	}
	edges := placeEdges(packed, tr.NumCompute())
	for _, v := range []struct {
		name string
		run  func(*topology.Tree, Placement, uint64, ...netsim.Option) (*Result, error)
	}{{"cc", CC}, {"cc-fast", CCFast}, {"cc-flat", CCFlat}, {"spanforest", SpanningForest}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := v.run(tr, edges, 1, netsim.WithWorkers(2), netsim.WithLeanStats()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCCAllocRegression is a coarse guard against the contraction path
// regressing to per-vertex heap traffic: the int-indexed run must perform
// well under half the allocations of the map-based baseline on the same
// input. (The absolute counts vary with Go version and scheduling, so the
// guard is relative, not a fixed number.)
func TestCCAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement skipped in -short mode")
	}
	tr, edges := benchInput(t, 4_000, 4.0/4_000)
	measure := func(fn func()) float64 {
		fn() // warm caches so one-time costs don't skew the ratio
		return testing.AllocsPerRun(3, fn)
	}
	indexed := measure(func() {
		if _, err := CC(tr, edges, 42); err != nil {
			t.Fatal(err)
		}
	})
	maps := measure(func() {
		if _, err := runMaps(tr, edges, 42, true, false, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/run: int-indexed=%.0f map-baseline=%.0f", indexed, maps)
	if indexed > maps/2 {
		t.Errorf("int-indexed contraction allocates %.0f/run, want < half of map baseline (%.0f/run)", indexed, maps)
	}
}
