package multijoin

import (
	"math/rand"
	"reflect"
	"testing"

	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

func randTriangleInput(t *testing.T, rng *rand.Rand, p, m, dom int) (r, s, tt Placement) {
	t.Helper()
	gen := func() Placement {
		pl := make(Placement, p)
		for i := 0; i < m; i++ {
			n := rng.Intn(p)
			pl[n] = append(pl[n], Tuple{A: uint64(rng.Intn(dom)), B: uint64(rng.Intn(dom))})
		}
		return pl
	}
	return gen(), gen(), gen()
}

func randStarInput(t *testing.T, rng *rand.Rand, k, p, m, dom int) []Placement {
	t.Helper()
	rels := make([]Placement, k)
	for j := range rels {
		rels[j] = make(Placement, p)
		for i := 0; i < m; i++ {
			n := rng.Intn(p)
			rels[j][n] = append(rels[j][n], Tuple{A: uint64(rng.Intn(dom)), B: rng.Uint64()})
		}
	}
	return rels
}

func testTrees(t *testing.T) map[string]*topology.Tree {
	t.Helper()
	star, err := topology.UniformStar(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	twotier, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	cater, err := topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Tree{"star": star, "twotier": twotier, "caterpillar": cater}
}

// TestTriangleMatchesReference: both variants produce the exact reference
// count and checksum, and the sampled triples are real joins of the input.
func TestTriangleMatchesReference(t *testing.T) {
	for name, tree := range testTrees(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			r, s, tt := randTriangleInput(t, rng, tree.NumCompute(), 400, 24)
			want := TriangleReference(r, s, tt)
			if want.Count == 0 {
				t.Fatal("degenerate instance: no triangles")
			}
			for variant, run := range map[string]func(*topology.Tree, Placement, Placement, Placement, uint64, ...netsim.Option) (*Result, error){
				"aware": Triangle, "flat": TriangleFlat,
			} {
				res, err := run(tree, r, s, tt, 42)
				if err != nil {
					t.Fatalf("%s: %v", variant, err)
				}
				if got := res.TotalOutputs(); got != want.Count {
					t.Fatalf("%s: %d triangles, want %d", variant, got, want.Count)
				}
				if res.Checksum != want.Checksum {
					t.Fatalf("%s: checksum mismatch", variant)
				}
				verifySamples(t, r, s, tt, res)
				cells := 0
				for _, c := range res.CellsPerNode {
					cells += c
				}
				if wantCells := res.Shares[0] * res.Shares[1] * res.Shares[2]; cells != wantCells {
					t.Fatalf("%s: %d cells assigned, want %d", variant, cells, wantCells)
				}
			}
		})
	}
}

func verifySamples(t *testing.T, r, s, tt Placement, res *Result) {
	t.Helper()
	has := func(p Placement, tp Tuple) bool {
		for _, frag := range p {
			for _, x := range frag {
				if x == tp {
					return true
				}
			}
		}
		return false
	}
	for i, sample := range res.Sample {
		for _, tr := range sample {
			if !has(r, Tuple{A: tr.A, B: tr.B}) || !has(s, Tuple{A: tr.B, B: tr.C}) || !has(tt, Tuple{A: tr.C, B: tr.A}) {
				t.Fatalf("node %d emitted triangle %+v not in the input", i, tr)
			}
		}
	}
}

// TestStarMatchesReference: both variants produce the exact reference
// count and per-value checksum.
func TestStarMatchesReference(t *testing.T) {
	for name, tree := range testTrees(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			rels := randStarInput(t, rng, 4, tree.NumCompute(), 300, 60)
			want := StarReference(rels)
			if want.Count == 0 {
				t.Fatal("degenerate instance: empty star join")
			}
			for variant, run := range map[string]func(*topology.Tree, []Placement, uint64, ...netsim.Option) (*Result, error){
				"aware": Star, "flat": StarFlat,
			} {
				res, err := run(tree, rels, 42)
				if err != nil {
					t.Fatalf("%s: %v", variant, err)
				}
				if got := res.TotalOutputs(); got != want.Count {
					t.Fatalf("%s: %d rows, want %d", variant, got, want.Count)
				}
				if res.Checksum != want.Checksum {
					t.Fatalf("%s: checksum mismatch", variant)
				}
			}
		})
	}
}

// TestAwareBeatsFlatOnSkewedTopologies: the capacity-apportioned cell
// assignment must strictly beat flat HyperCube where the topology is
// skewed. The star shape additionally needs skewed data placement on the
// two-tier tree — with perfectly uniform data the weak-uplink traffic of a
// unicast hash partition is constant in the target weights, so no
// assignment can win there.
func TestAwareBeatsFlatOnSkewedTopologies(t *testing.T) {
	trees := testTrees(t)
	for _, name := range []string{"twotier", "caterpillar"} {
		tree := trees[name]
		rng := rand.New(rand.NewSource(3))
		r, s, tt := randTriangleInput(t, rng, tree.NumCompute(), 600, 30)
		aware, err := Triangle(tree, r, s, tt, 42)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := TriangleFlat(tree, r, s, tt, 42)
		if err != nil {
			t.Fatal(err)
		}
		if aware.Report.TotalCost() >= flat.Report.TotalCost() {
			t.Errorf("%s triangle: aware cost %.1f not below flat %.1f", name,
				aware.Report.TotalCost(), flat.Report.TotalCost())
		}
		rels := randStarInput(t, rng, 3, tree.NumCompute(), 600, 80)
		if name == "twotier" {
			// Skew: concentrate ~90% of every relation on the fast rack
			// (nodes 0-3), the scenario where weighted hashing pays off.
			for _, rel := range rels {
				for i := 4; i < len(rel); i++ {
					keep := rel[i][:0]
					for j, tp := range rel[i] {
						if j%10 == 0 {
							keep = append(keep, tp)
						} else {
							rel[i%4] = append(rel[i%4], tp)
						}
					}
					rel[i] = keep
				}
			}
		}
		sAware, err := Star(tree, rels, 42)
		if err != nil {
			t.Fatal(err)
		}
		sFlat, err := StarFlat(tree, rels, 42)
		if err != nil {
			t.Fatal(err)
		}
		if sAware.Report.TotalCost() >= sFlat.Report.TotalCost() {
			t.Errorf("%s star: aware cost %.1f not below flat %.1f", name,
				sAware.Report.TotalCost(), sFlat.Report.TotalCost())
		}
	}
}

// TestCostAboveMultijoinBound: simulated cost dominates the
// tuple-transfer cut bound on random instances.
func TestCostAboveMultijoinBound(t *testing.T) {
	for name, tree := range testTrees(t) {
		rng := rand.New(rand.NewSource(13))
		r, s, tt := randTriangleInput(t, rng, tree.NumCompute(), 300, 20)
		ref := TriangleReference(r, s, tt)
		lb := lowerbound.Multijoin(tree, ref.Count, ref.MaxDeg, TriangleCutCounts(tree, r, s, tt))
		for variant, run := range map[string]func(*topology.Tree, Placement, Placement, Placement, uint64, ...netsim.Option) (*Result, error){
			"aware": Triangle, "flat": TriangleFlat,
		} {
			res, err := run(tree, r, s, tt, 99)
			if err != nil {
				t.Fatal(err)
			}
			if cost := res.Report.TotalCost(); cost < lb.Value {
				t.Errorf("%s/%s: cost %.3f below bound %.3f", name, variant, cost, lb.Value)
			}
		}
	}
}

// TestBalancedShares: product within p, balanced, deterministic.
func TestBalancedShares(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		2:  {2, 1, 1},
		6:  {2, 1, 3}, // any permutation with product 6 is fine; pin the actual result
		8:  {2, 2, 2},
		12: {3, 2, 2},
		27: {3, 3, 3},
	}
	for p := range cases {
		g := BalancedShares(p, 3)
		prod := g[0] * g[1] * g[2]
		if prod > p || prod < 1 {
			t.Fatalf("p=%d: shares %v product %d out of range", p, g, prod)
		}
	}
	// Degenerate dims.
	if g := BalancedShares(0, 3); g[0]*g[1]*g[2] != 1 {
		t.Fatalf("p=0 shares %v", g)
	}
}

// TestStarErrors: arity validation.
func TestStarErrors(t *testing.T) {
	tree := testTrees(t)["star"]
	if _, err := Star(tree, []Placement{make(Placement, tree.NumCompute())}, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := Star(tree, []Placement{{}, {}}, 1); err == nil {
		t.Fatal("short placement accepted")
	}
}

// bend makes a drawn relation degenerate: variant 0 empties it, 1 moves all
// of it to one node, 2 gives half its tuples one join value, 3 repeats
// every tuple, 4 leaves it as drawn.
func bend(rel Placement, variant int) Placement {
	switch variant {
	case 0:
		return make(Placement, len(rel))
	case 1:
		for i := 1; i < len(rel); i++ {
			rel[0] = append(rel[0], rel[i]...)
			rel[i] = nil
		}
	case 2:
		for _, frag := range rel {
			for j := range frag {
				if j%2 == 0 {
					frag[j].A = 3
				}
			}
		}
	case 3:
		for i, frag := range rel {
			rel[i] = append(frag, frag...)
		}
	}
	return rel
}

// TestDegenerateInputsAcrossWorkers runs the four protocols on every
// topotest shape (the single compute node among them) with degenerate
// inputs — variant 0 empties the first relation only: the result must
// match the reference and be the same at workers 1, 2, 4 and 7. The
// per-home joins fork on the pool; run with -race -count=10.
func TestDegenerateInputsAcrossWorkers(t *testing.T) {
	for iter := 0; iter < 5*topotest.NumShapes; iter++ {
		rng := rand.New(rand.NewSource(int64(700 + iter)))
		shape, tree, err := topotest.Draw(rng, iter)
		if err != nil {
			t.Fatal(err)
		}
		p, variant := tree.NumCompute(), iter/topotest.NumShapes
		r, s, tt := randTriangleInput(t, rng, p, 150, 12)
		rels := randStarInput(t, rng, 3, p, 120, 25)
		for j := range rels {
			if variant != 0 || j == 0 {
				rels[j] = bend(rels[j], variant)
			}
		}
		r = bend(r, variant)
		if variant != 0 {
			s, tt = bend(s, variant), bend(tt, variant)
		}
		runs := map[string]struct {
			ref RefStats
			run func(...netsim.Option) (*Result, error)
		}{
			"triangle":      {TriangleReference(r, s, tt), func(o ...netsim.Option) (*Result, error) { return Triangle(tree, r, s, tt, 9, o...) }},
			"triangle-flat": {TriangleReference(r, s, tt), func(o ...netsim.Option) (*Result, error) { return TriangleFlat(tree, r, s, tt, 9, o...) }},
			"star":          {StarReference(rels), func(o ...netsim.Option) (*Result, error) { return Star(tree, rels, 9, o...) }},
			"star-flat":     {StarReference(rels), func(o ...netsim.Option) (*Result, error) { return StarFlat(tree, rels, 9, o...) }},
		}
		for name, tc := range runs {
			var want *Result
			for _, workers := range []int{1, 2, 4, 7} {
				res, err := tc.run(netsim.WithWorkers(workers))
				if err != nil {
					t.Fatalf("iter %d %s %s workers=%d: %v", iter, shape, name, workers, err)
				}
				if err := Verify(tc.ref, res); err != nil {
					t.Fatalf("iter %d %s %s workers=%d: %v", iter, shape, name, workers, err)
				}
				if want == nil {
					want = res
					verifySamples(t, r, s, tt, res)
				} else if !reflect.DeepEqual(res.PerNode, want.PerNode) || !reflect.DeepEqual(res.Sample, want.Sample) ||
					res.Checksum != want.Checksum || res.Report.TotalCost() != want.Report.TotalCost() {
					t.Fatalf("iter %d %s %s: workers=%d result differs from workers=1", iter, shape, name, workers)
				}
			}
		}
	}
}
