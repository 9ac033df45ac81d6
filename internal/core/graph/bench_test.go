package graph

import (
	"math/rand"
	"testing"

	"topompc/internal/dataset"
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
