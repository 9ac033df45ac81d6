package cartesian

import (
	"math"
	"testing"

	"topompc/internal/topology"
)

// TestBalancedPackingTreeFigure1bByHand runs Algorithm 5 on the Figure 1b
// tree with uniform unit bandwidths and balanced loads, and checks the w̃
// and l values against the hand computation:
//
//	leaves v1..v9:      w̃ = 1
//	racks w2..w4:       w̃ = min(1, sqrt(3)) = 1
//	root w1:            w̃ = sqrt(3)
//	racks:              l = 1/sqrt(3)
//	leaves:             l = (1/sqrt(3))·(1/sqrt(3)) = 1/3
func TestBalancedPackingTreeFigure1bByHand(t *testing.T) {
	tr := topology.Figure1b()
	loads := make(topology.Loads, tr.NumNodes())
	for _, v := range tr.ComputeNodes() {
		loads[v] = 100
	}
	d := topology.Orient(tr, loads)
	if d.RootIsCompute() {
		t.Fatal("balanced loads should root G† at a router")
	}
	if tr.Name(d.Root()) != "w1" {
		t.Fatalf("G† root = %s, want w1", tr.Name(d.Root()))
	}
	n := loads.Total()
	dims := balancedPackingTree(d, n)

	if got := dims.wTilde[d.Root()]; math.Abs(got-math.Sqrt(3)) > 1e-9 {
		t.Errorf("w̃(root) = %v, want sqrt(3)", got)
	}
	for v := topology.NodeID(0); int(v) < tr.NumNodes(); v++ {
		name := tr.Name(v)
		switch {
		case tr.IsCompute(v):
			if math.Abs(dims.wTilde[v]-1) > 1e-9 {
				t.Errorf("w̃(%s) = %v, want 1", name, dims.wTilde[v])
			}
			if math.Abs(dims.l[v]-1.0/3) > 1e-9 {
				t.Errorf("l(%s) = %v, want 1/3", name, dims.l[v])
			}
			// d_v = nextPow2(N/3) = nextPow2(300) = 512.
			if dims.side[v] != 512 {
				t.Errorf("side(%s) = %d, want 512", name, dims.side[v])
			}
		case name == "w2" || name == "w3" || name == "w4":
			if math.Abs(dims.wTilde[v]-1) > 1e-9 {
				t.Errorf("w̃(%s) = %v, want min(1, sqrt(3)) = 1", name, dims.wTilde[v])
			}
			if math.Abs(dims.l[v]-1/math.Sqrt(3)) > 1e-9 {
				t.Errorf("l(%s) = %v, want 1/sqrt(3)", name, dims.l[v])
			}
		}
	}
}

// starSides runs Algorithm 5 on a star with the input spread evenly, so
// G†'s root is the router, and returns each compute node's square side.
func starSides(t *testing.T, tr *topology.Tree, n int64) map[topology.NodeID]int64 {
	t.Helper()
	loads := make(topology.Loads, tr.NumNodes())
	for _, v := range tr.ComputeNodes() {
		loads[v] = n / int64(tr.NumCompute())
	}
	d := topology.Orient(tr, loads)
	if d.RootIsCompute() {
		t.Fatal("even loads should root G† at the router")
	}
	return balancedPackingTree(d, n).side
}

// TestStarSidesEquation1 validates equation (1) of §4.2, which Algorithm 5
// reduces to on a star, on a concrete instance: N = 1000, bandwidths
// {3, 4}: L = 1000/5 = 200, sides nextPow2(600) = 1024 and
// nextPow2(800) = 1024.
func TestStarSidesEquation1(t *testing.T) {
	tr, err := topology.Star([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	sides := starSides(t, tr, 1000)
	vs := tr.ComputeNodes()
	if sides[vs[0]] != 1024 {
		t.Errorf("side(v1) = %d, want 1024", sides[vs[0]])
	}
	if sides[vs[1]] != 1024 {
		t.Errorf("side(v2) = %d, want 1024", sides[vs[1]])
	}
	// Coverage invariant of Lemma 6: Σ (2^l_v)² ≥ (w_v·L)² summed = N².
	var sum float64
	for _, v := range vs {
		sum += float64(sides[v]) * float64(sides[v])
	}
	if sum < 1000*1000 {
		t.Errorf("Σ d² = %v < N²", sum)
	}
}

// TestStarSidesInfiniteBandwidth: an infinite link can host the entire
// grid.
func TestStarSidesInfiniteBandwidth(t *testing.T) {
	b := topology.NewBuilder()
	v1 := b.Compute("v1")
	v2 := b.Compute("v2")
	w := b.Router("w")
	b.Link(v1, w, math.Inf(1))
	b.Link(v2, w, 1)
	tr := b.MustBuild()
	sides := starSides(t, tr, 500)
	if sides[v1] < 512 {
		t.Errorf("infinite-bandwidth node side = %d, want ≥ nextPow2(500)", sides[v1])
	}
	if sides[v2] < 1 {
		t.Errorf("finite node side = %d", sides[v2])
	}
}
