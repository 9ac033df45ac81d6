package lowerbound

import (
	"math/rand"
	"testing"

	"topompc/internal/topology"
)

// TestConnectivityMatchesBruteForce verifies the Steiner-counted per-edge
// spanning counts against a direct per-cut computation on random trees.
func TestConnectivityMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		tree, err := topology.Random(rng, 2+rng.Intn(8), 1+rng.Intn(5), 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		nodes := tree.ComputeNodes()
		// Random component occupancy sets.
		var occ [][]topology.NodeID
		for c := 0; c < 12; c++ {
			var set []topology.NodeID
			for _, v := range nodes {
				if rng.Intn(3) == 0 {
					set = append(set, v)
				}
			}
			occ = append(occ, set)
		}
		got := Connectivity(tree, occ)
		for e := topology.EdgeID(0); int(e) < tree.NumEdges(); e++ {
			spanning := 0
			for _, set := range occ {
				below, above := false, false
				for _, v := range set {
					if tree.OnChildSide(e, v) {
						below = true
					} else {
						above = true
					}
				}
				if below && above {
					spanning++
				}
			}
			want := float64(spanning) / tree.Bandwidth(e)
			if diff := got.PerEdge[e] - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d edge %d: bound %.6f, brute force %.6f", trial, e, got.PerEdge[e], want)
			}
		}
	}
}

// TestConnectivityEmpty: no spanning components means a zero bound.
func TestConnectivityEmpty(t *testing.T) {
	tree, err := topology.UniformStar(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := Connectivity(tree, [][]topology.NodeID{{tree.ComputeNodes()[0]}, nil})
	if b.Value != 0 {
		t.Fatalf("bound %.3f, want 0", b.Value)
	}
}
