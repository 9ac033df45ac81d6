package aggregate

import (
	"math/rand"
	"testing"

	"topompc/internal/lowerbound"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// spanningPerEdge is the statistic of LowerBound counted one edge at a
// time, the way LowerBound did before the Steiner sweep: the groups on each
// side of the cut in two maps, O(|E|·N). Kept as the test oracle.
func spanningPerEdge(t *topology.Tree, data Placement) []int64 {
	nodes := t.ComputeNodes()
	out := make([]int64, t.NumEdges())
	for e := range out {
		below := make(map[uint64]bool)
		above := make(map[uint64]bool)
		for i, v := range nodes {
			side := above
			if t.OnChildSide(topology.EdgeID(e), v) {
				side = below
			}
			for _, p := range data[i] {
				side[p.Group] = true
			}
		}
		for g := range below {
			if above[g] {
				out[e]++
			}
		}
	}
	return out
}

// TestLowerBoundMatchesPerEdgeOracle: on every tree shape and on the
// degenerate inputs, the swept per-edge terms, the bound and the binding
// edge equal the two-map count.
func TestLowerBoundMatchesPerEdgeOracle(t *testing.T) {
	for iter := 0; iter < 100; iter++ {
		rng := rand.New(rand.NewSource(int64(2000 + iter)))
		shape, tree, err := topotest.Draw(rng, iter)
		if err != nil {
			t.Fatal(err)
		}
		p := tree.NumCompute()
		data := genData(rng, p, rng.Intn(12), 1+rng.Intn(20))
		switch rng.Intn(4) {
		case 1: // everything on one node
			for i := 1; i < p; i++ {
				data[0] = append(data[0], data[i]...)
				data[i] = nil
			}
		case 2: // no data
			data = make(Placement, p)
		case 3: // heavy duplicates, some nodes empty
			for i, frag := range data {
				if rng.Intn(3) == 0 {
					data[i] = nil
				} else {
					data[i] = append(frag, frag...)
				}
			}
		}
		want := spanningPerEdge(tree, data)
		got := lowerbound.Spanning(tree, GroupHolders(tree, data))
		best, bestEdge := 0.0, topology.NoEdge
		for e, n := range want {
			term := float64(n) / tree.Bandwidth(topology.EdgeID(e))
			if got.PerEdge[e] != term {
				t.Fatalf("iter %d %s: edge %d term %v, per-edge oracle %v (%d groups)", iter, shape, e, got.PerEdge[e], term, n)
			}
			if term > best {
				best, bestEdge = term, topology.EdgeID(e)
			}
		}
		if got.Value != best || got.Edge != bestEdge || LowerBound(tree, data) != best {
			t.Fatalf("iter %d %s: bound %v at edge %d, per-edge oracle %v at edge %d", iter, shape, got.Value, got.Edge, best, bestEdge)
		}
	}
}
