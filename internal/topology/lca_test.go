package topology

import (
	"math/rand"
	"testing"
)

// randomTestTree builds a random tree with n nodes where every node is
// compute (so any node can be a transfer endpoint).
func randomTestTree(tb testing.TB, rng *rand.Rand, n int) *Tree {
	b := NewBuilder()
	ids := make([]NodeID, n)
	ids[0] = b.Compute("n0")
	for i := 1; i < n; i++ {
		ids[i] = b.Compute("")
		b.Link(ids[i], ids[rng.Intn(i)], 1+float64(rng.Intn(5)))
	}
	t, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// TestPathAccumulatorUnicasts checks tree-difference counting against
// explicit per-message path walks.
func TestPathAccumulatorUnicasts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(50)
		tr := randomTestTree(t, rng, n)
		acc := NewPathAccumulator(tr)
		want := make([]int64, tr.NumEdges())
		var buf []EdgeID
		for m := 0; m < 100; m++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			c := int64(rng.Intn(5)) // includes zero-size transfers
			acc.AddPath(u, v, c)
			buf = tr.Path(buf[:0], u, v)
			for _, e := range buf {
				want[e] += c
			}
		}
		got := make([]int64, tr.NumEdges())
		acc.FlushInto(got)
		for e := range want {
			if got[e] != want[e] {
				t.Fatalf("trial %d edge %d: got %d, want %d", trial, e, got[e], want[e])
			}
		}
		// Accumulator is reset after flush: flushing again adds nothing.
		again := make([]int64, tr.NumEdges())
		acc.FlushInto(again)
		for e, c := range again {
			if c != 0 {
				t.Fatalf("accumulator not reset: edge %d has %d", e, c)
			}
		}
	}
}

// TestPathAccumulatorSteiner checks virtual-tree multicast accounting
// against the stamp-based Steiner edge enumeration.
func TestPathAccumulatorSteiner(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(50)
		tr := randomTestTree(t, rng, n)
		sc := NewSteinerScratch(tr)
		acc := NewPathAccumulator(tr)
		want := make([]int64, tr.NumEdges())
		var buf []EdgeID
		for m := 0; m < 60; m++ {
			src := NodeID(rng.Intn(n))
			k := 1 + rng.Intn(6)
			dsts := make([]NodeID, k)
			for i := range dsts {
				dsts[i] = NodeID(rng.Intn(n)) // duplicates and src itself allowed
			}
			c := int64(1 + rng.Intn(4))
			acc.AddSteiner(append(dsts, src), c)
			buf = tr.Steiner(buf[:0], sc, src, dsts)
			for _, e := range buf {
				want[e] += c
			}
		}
		got := make([]int64, tr.NumEdges())
		acc.FlushInto(got)
		for e := range want {
			if got[e] != want[e] {
				t.Fatalf("trial %d edge %d: got %d, want %d", trial, e, got[e], want[e])
			}
		}
	}
}

// TestPathAccumulatorMerge checks sharded accounting: two accumulators
// merged give the same totals as one.
func TestPathAccumulatorMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := randomTestTree(t, rng, 40)
	a := NewPathAccumulator(tr)
	b := NewPathAccumulator(tr)
	single := NewPathAccumulator(tr)
	for m := 0; m < 200; m++ {
		u := NodeID(rng.Intn(40))
		v := NodeID(rng.Intn(40))
		c := int64(1 + rng.Intn(3))
		single.AddPath(u, v, c)
		if m%2 == 0 {
			a.AddPath(u, v, c)
		} else {
			b.AddPath(u, v, c)
		}
	}
	a.MergeFrom(b)
	got := make([]int64, tr.NumEdges())
	a.FlushInto(got)
	want := make([]int64, tr.NumEdges())
	single.FlushInto(want)
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("edge %d: merged %d, single %d", e, got[e], want[e])
		}
	}
	// b was drained by the merge.
	leftover := make([]int64, tr.NumEdges())
	b.FlushInto(leftover)
	for e, c := range leftover {
		if c != 0 {
			t.Fatalf("merge left %d on edge %d of source accumulator", c, e)
		}
	}
}

// BenchmarkLCAWide queries random leaf pairs of the 25,001-leaf graded
// caterpillar, the tree of the benchmark's dataplane-wide workload: a deep
// tree whose index does not fit the cache.
func BenchmarkLCAWide(b *testing.B) {
	spine := make([]float64, 25000)
	for i := range spine {
		spine[i] = 1 + float64(i%7)
	}
	tr, err := Caterpillar(spine, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	vs := tr.ComputeNodes()
	pairs := make([][2]NodeID, 1<<16)
	for i := range pairs {
		pairs[i] = [2]NodeID{vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]}
	}
	var sink NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&(len(pairs)-1)]
		sink += tr.LCA(p[0], p[1])
	}
	_ = sink
}
