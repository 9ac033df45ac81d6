package topology_test

import (
	"math/rand"
	"testing"

	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// naiveLCA climbs both endpoints to their meeting point and counts the
// steps.
func naiveLCA(t *topology.Tree, u, v topology.NodeID) (topology.NodeID, int) {
	steps := 0
	for u != v {
		if t.Depth(u) >= t.Depth(v) {
			u, _ = t.Parent(u)
		} else {
			v, _ = t.Parent(v)
		}
		steps++
	}
	return u, steps
}

// checkAllPairs compares LCA and PathLen with the climb on every ordered
// pair of nodes: u == v, the root, ancestors with their descendants and
// unrelated nodes alike.
func checkAllPairs(t *testing.T, name string, tr *topology.Tree) {
	t.Helper()
	n := tr.NumNodes()
	for u := topology.NodeID(0); int(u) < n; u++ {
		for v := topology.NodeID(0); int(v) < n; v++ {
			want, steps := naiveLCA(tr, u, v)
			if got := tr.LCA(u, v); got != want {
				t.Fatalf("%s (%d nodes, root %d): LCA(%d,%d) = %d, want %d", name, n, tr.Root(), u, v, got, want)
			}
			if got := tr.PathLen(u, v); got != steps {
				t.Fatalf("%s (%d nodes): PathLen(%d,%d) = %d, want %d", name, n, u, v, got, steps)
			}
		}
	}
}

// drawnShapes calls fn on four draws of every topotest shape: one node, a
// line, Gomory–Hu trees and trees with inner compute nodes among them.
func drawnShapes(t *testing.T, seed int64, fn func(name string, tr *topology.Tree)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4*topotest.NumShapes; i++ {
		name, tr, err := topotest.Draw(rng, i)
		if err != nil {
			t.Fatalf("shape %d (%s): %v", i, name, err)
		}
		fn(name, tr)
	}
}

func TestLCAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		// A random tree where every node is compute, so the root is node 0
		// and has data of its own.
		b := topology.NewBuilder()
		ids := []topology.NodeID{b.Compute("n0")}
		for n := 1 + rng.Intn(60); n > 0; n-- {
			v := b.Compute("")
			b.Link(v, ids[rng.Intn(len(ids))], 1+float64(rng.Intn(5)))
			ids = append(ids, v)
		}
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkAllPairs(t, "random", tr)
	}
	drawnShapes(t, 7, func(name string, tr *topology.Tree) { checkAllPairs(t, name, tr) })
}

func TestLCAGeneratedTopologies(t *testing.T) {
	star, err := topology.Star([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cater, err := topology.Caterpillar([]float64{1, 2, 3, 4, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fat, err := topology.FatTree(3, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 2^k and 2^k ± 1 nodes: the widths at which the sparse table gains a
	// level.
	for _, spine := range []int{1, 3, 7, 8, 15, 16, 31, 32, 33} {
		deep, err := topology.Caterpillar(uniformSpine(spine), 4)
		if err != nil {
			t.Fatal(err)
		}
		checkAllPairs(t, "deep caterpillar", deep)
	}
	for _, tr := range []*topology.Tree{star, cater, fat, topology.Figure1a(), topology.Figure1b()} {
		checkAllPairs(t, "generated", tr)
	}
	drawnShapes(t, 11, func(name string, tr *topology.Tree) { checkAllPairs(t, name, tr) })
}

// uniformSpine returns n spine links of bandwidth 2.
func uniformSpine(n int) []float64 {
	spine := make([]float64, n)
	for i := range spine {
		spine[i] = 2
	}
	return spine
}
