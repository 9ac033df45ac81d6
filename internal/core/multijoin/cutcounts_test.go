package multijoin

import (
	"math/rand"
	"testing"

	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// degenerate rewrites a generated star or triangle input into one of the
// inputs a cut count must survive; mode 0 leaves it alone.
func degenerate(mode int, rels []Placement) string {
	p := len(rels[0])
	switch mode {
	case 1: // every tuple on one node
		for _, rel := range rels {
			for i := 1; i < p; i++ {
				rel[0] = append(rel[0], rel[i]...)
				rel[i] = nil
			}
		}
		return "one-holder"
	case 2: // one relation empty: no output at all
		for i := range rels[len(rels)-1] {
			rels[len(rels)-1][i] = nil
		}
		return "empty-relation"
	case 3: // heavy duplicates: every tuple repeated, two attribute values
		for _, rel := range rels {
			for i, frag := range rel {
				for j := range frag {
					frag[j] = Tuple{A: frag[j].A % 2, B: frag[j].B % 2}
				}
				rel[i] = append(frag, frag...)
			}
		}
		return "duplicates"
	case 4: // odd values missing from the first relation
		for i, frag := range rels[0] {
			keep := frag[:0]
			for _, tp := range frag {
				if tp.A%2 == 0 {
					keep = append(keep, tp)
				}
			}
			rels[0][i] = keep
		}
		return "value-in-k-1-relations"
	}
	return "random"
}

func checkCutCounts(t *testing.T, label string, tree *topology.Tree, got, want func(topology.EdgeID) (int64, int64)) {
	t.Helper()
	for e := topology.EdgeID(0); int(e) < tree.NumEdges(); e++ {
		gb, ga := got(e)
		wb, wa := want(e)
		if gb != wb || ga != wa {
			t.Fatalf("%s: edge %d: sweep (below %d, above %d), per-edge oracle (below %d, above %d)",
				label, e, gb, ga, wb, wa)
		}
	}
}

// TestCutCountsMatchPerEdgeOracle: on every tree shape and degenerate
// input, the sweep's (below, above) equal two side-filtered reference joins
// per edge, and the indexed references equal the map-based ones.
func TestCutCountsMatchPerEdgeOracle(t *testing.T) {
	for iter := 0; iter < 100; iter++ {
		rng := rand.New(rand.NewSource(int64(1000 + iter)))
		shape, tree, err := topotest.Draw(rng, iter)
		if err != nil {
			t.Fatal(err)
		}
		p := tree.NumCompute()
		mode := rng.Intn(5)

		tri := make([]Placement, 3)
		tri[0], tri[1], tri[2] = randTriangleInput(t, rng, p, 40+rng.Intn(80), 3+rng.Intn(6))
		label := shape + "/triangle/" + degenerate(mode, tri)
		if got, want := TriangleReference(tri[0], tri[1], tri[2]), triangleReferenceMaps(tri[0], tri[1], tri[2]); got != want {
			t.Fatalf("%s: reference %+v, map-based oracle %+v", label, got, want)
		}
		checkCutCounts(t, label, tree,
			TriangleCutCounts(tree, tri[0], tri[1], tri[2]),
			triangleCutCountsPerEdge(tree, tri[0], tri[1], tri[2]))

		star := randStarInput(t, rng, 2+rng.Intn(3), p, 30+rng.Intn(60), 4+rng.Intn(12))
		label = shape + "/star/" + degenerate(mode, star)
		if got, want := StarReference(star), starReferenceMaps(star); got != want {
			t.Fatalf("%s: reference %+v, map-based oracle %+v", label, got, want)
		}
		checkCutCounts(t, label, tree, StarCutCounts(tree, star), starCutCountsPerEdge(tree, star))
	}
}
