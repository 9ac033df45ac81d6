package intersect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// makeInstance builds an intersection instance on tr: R and S of the given
// sizes with the given overlap, placed by place.
func makeInstance(t *testing.T, rng *rand.Rand, tr *topology.Tree, sizeR, sizeS, overlap int,
	place func(keys []uint64, p int) (dataset.Placement, error)) (dataset.Placement, dataset.Placement) {
	t.Helper()
	r, s, err := dataset.SetPair(rng, sizeR, sizeS, overlap)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.NumCompute()
	pr, err := place(r, p)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := place(s, p)
	if err != nil {
		t.Fatal(err)
	}
	return pr, ps
}

func uniformPlace(keys []uint64, p int) (dataset.Placement, error) {
	return dataset.SplitUniform(keys, p)
}

// TestTreeIntersectCorrectStar runs Algorithm 2 on stars — the shape the
// paper's Algorithm 1 was written for — in one round: a uniform star, a
// heterogeneous one across size ratios from 1:999 to 999:1, and a placement
// with two nodes each holding nearly half the data, far more than |R|.
func TestTreeIntersectCorrectStar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	uniform, _ := topology.UniformStar(4, 1)
	hetero, _ := topology.Star([]float64{1, 5, 2, 8})
	type fixture struct {
		tr      *topology.Tree
		r, s    dataset.Placement
		overlap int
		seed    uint64
	}
	r, s := makeInstance(t, rng, uniform, 200, 800, 77, uniformPlace)
	groups := map[string][]fixture{"uniform": {{uniform, r, s, 77, 42}}}
	heteroRng := rand.New(rand.NewSource(6))
	for _, tc := range []struct{ sizeR, sizeS, overlap int }{
		{100, 1000, 40},
		{500, 500, 0},
		{1, 999, 1},
		{999, 1, 0},
	} {
		r, s := makeInstance(t, heteroRng, hetero, tc.sizeR, tc.sizeS, tc.overlap, uniformPlace)
		groups["hetero"] = append(groups["hetero"], fixture{hetero, r, s, tc.overlap, 23})
	}
	rk, sk, err := dataset.SetPair(rand.New(rand.NewSource(7)), 20, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if r, err = dataset.SplitCounts(rk, []int{20, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if s, err = dataset.SplitCounts(sk, []int{0, 990, 990, 20}); err != nil {
		t.Fatal(err)
	}
	groups["betanodes"] = []fixture{{uniform, r, s, 9, 31}}

	for name, cases := range groups {
		t.Run(name, func(t *testing.T) {
			for _, tc := range cases {
				res, err := Tree(tc.tr, tc.r, tc.s, tc.seed)
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("|R|=%d |S|=%d", tc.r.Total(), tc.s.Total())
				if err := Verify(Reference(tc.r, tc.s), res); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if res.Report.NumRounds() != 1 {
					t.Errorf("%s: rounds = %d, want 1 (Table 1)", at, res.Report.NumRounds())
				}
				if len(res.Output) != tc.overlap {
					t.Errorf("%s: |output| = %d, want %d", at, len(res.Output), tc.overlap)
				}
			}
		})
	}
}

func TestTreeIntersectCorrectAcrossTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	topos := map[string]*topology.Tree{
		"figure1b": topology.Figure1b(),
	}
	if tt, err := topology.TwoTier([]int{3, 2, 4}, []float64{4, 2, 1}, 8); err == nil {
		topos["twotier"] = tt
	}
	if ft, err := topology.FatTree(2, 3, 1, 4); err == nil {
		topos["fattree"] = ft
	}
	if ct, err := topology.Caterpillar([]float64{1, 3, 2, 5}, 2); err == nil {
		topos["caterpillar"] = ct
	}
	for name, tr := range topos {
		t.Run(name, func(t *testing.T) {
			for _, overlap := range []int{0, 13, 150} {
				r, s := makeInstance(t, rng, tr, 150, 600, overlap, uniformPlace)
				res, err := Tree(tr, r, s, 7)
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(Reference(r, s), res); err != nil {
					t.Fatalf("overlap %d: %v", overlap, err)
				}
			}
		})
	}
}

func TestTreeIntersectSkewedPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, _ := topology.TwoTier([]int{2, 2}, []float64{1, 2}, 4)
	places := map[string]func(keys []uint64, p int) (dataset.Placement, error){
		"zipf": func(k []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitZipf(rand.New(rand.NewSource(5)), k, p, 1.2)
		},
		"oneheavy": func(k []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitOneHeavy(k, p, 0, 0.9)
		},
		"single": func(k []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitSingle(k, p, 1)
		},
	}
	for name, place := range places {
		t.Run(name, func(t *testing.T) {
			r, s := makeInstance(t, rng, tr, 100, 900, 31, place)
			res, err := Tree(tr, r, s, 99)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(Reference(r, s), res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTreeIntersectEmptyRelation(t *testing.T) {
	tr, _ := topology.UniformStar(3, 1)
	empty := make(dataset.Placement, 3)
	s, _ := dataset.SplitUniform(dataset.Sequential(30), 3)
	res, err := Tree(tr, empty, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Error("intersection with empty R should be empty")
	}
	if res.Report.TotalCost() != 0 {
		t.Error("empty instance should cost nothing")
	}
}

func TestTreeIntersectSwapsRoles(t *testing.T) {
	// |S| < |R|: the algorithm must treat S as the replicated side and
	// still be correct.
	rng := rand.New(rand.NewSource(4))
	tr, _ := topology.UniformStar(4, 1)
	r, s := makeInstance(t, rng, tr, 900, 50, 20, uniformPlace)
	res, err := Tree(tr, r, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(Reference(r, s), res); err != nil {
		t.Fatal(err)
	}
}

func TestTreeIntersectDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := topology.Figure1b()
	r, s := makeInstance(t, rng, tr, 300, 700, 55, uniformPlace)
	a, err := Tree(tr, r, s, 17)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tree(tr, r, s, 17)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.TotalCost() != b.Report.TotalCost() {
		t.Error("same seed produced different costs")
	}
	for i := range a.PerNode {
		if len(a.PerNode[i]) != len(b.PerNode[i]) {
			t.Fatal("same seed produced different outputs")
		}
	}
}

func TestPlacementSizeMismatch(t *testing.T) {
	tr, _ := topology.UniformStar(3, 1)
	r := make(dataset.Placement, 2)
	s := make(dataset.Placement, 3)
	if _, err := Tree(tr, r, s, 1); err == nil {
		t.Error("expected error for placement/node mismatch")
	}
}

func TestBaselinesCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr, _ := topology.TwoTier([]int{2, 3}, []float64{2, 1}, 4)
	r, s := makeInstance(t, rng, tr, 120, 480, 37, uniformPlace)

	t.Run("uniformHash", func(t *testing.T) {
		res, err := UniformHash(tr, r, s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(Reference(r, s), res); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTreeIntersectCostEnvelope checks the Theorem 2 guarantee empirically:
// measured cost stays within a modest factor of the Theorem 1 lower bound
// (the theory allows O(log N · log|V|); typical instances sit well below).
func TestTreeIntersectCostEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	worst := 0.0
	for iter := 0; iter < 30; iter++ {
		tr, err := topology.Random(rng, 2+rng.Intn(8), 1+rng.Intn(4), 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		p := tr.NumCompute()
		sizeR := 50 + rng.Intn(200)
		sizeS := 500 + rng.Intn(1500)
		r, s, err := dataset.SetPair(rng, sizeR, sizeS, rng.Intn(sizeR))
		if err != nil {
			t.Fatal(err)
		}
		pr, _ := dataset.SplitZipf(rng, r, p, 1.0)
		ps, _ := dataset.SplitZipf(rng, s, p, 1.0)
		res, err := Tree(tr, pr, ps, uint64(iter))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(Reference(pr, ps), res); err != nil {
			t.Fatal(err)
		}
		loads := make(topology.Loads, tr.NumNodes())
		for i, v := range tr.ComputeNodes() {
			loads[v] = int64(len(pr[i]) + len(ps[i]))
		}
		lb := lowerbound.Intersection(tr, loads, int64(sizeR), int64(sizeS))
		ratio := netsim.Ratio(res.Report.TotalCost(), lb.Value)
		if ratio > worst {
			worst = ratio
		}
	}
	envelope := 16.0 // generous constant; the theory allows log factors
	if worst > envelope {
		t.Errorf("worst cost/LB ratio = %.2f exceeds envelope %.0f", worst, envelope)
	}
	if worst == 0 || math.IsInf(worst, 1) {
		t.Errorf("degenerate worst ratio %v", worst)
	}
}

// TestIntersectQuick property-tests correctness of TreeIntersect over
// random shapes, sizes and placements.
func TestIntersectQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64, sizeRaw uint16, overlapRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := topology.Random(rng, 2+rng.Intn(6), 1+rng.Intn(3), 1, 4)
		if err != nil {
			return false
		}
		sizeR := int(sizeRaw)%300 + 1
		sizeS := sizeR + rng.Intn(900)
		overlap := int(overlapRaw) % (sizeR + 1)
		r, s, err := dataset.SetPair(rng, sizeR, sizeS, overlap)
		if err != nil {
			return false
		}
		p := tr.NumCompute()
		pr, err := dataset.SplitZipf(rng, r, p, rng.Float64()*2)
		if err != nil {
			return false
		}
		ps, err := dataset.SplitZipf(rng, s, p, rng.Float64()*2)
		if err != nil {
			return false
		}
		res, err := Tree(tr, pr, ps, uint64(seed))
		if err != nil {
			return false
		}
		return Verify(Reference(pr, ps), res) == nil && len(res.Output) == overlap
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReferenceAndVerify(t *testing.T) {
	r := dataset.Placement{{1, 2, 3}, {4}}
	s := dataset.Placement{{3, 4}, {5, 1}}
	want := []uint64{1, 3, 4}
	got := Reference(r, s)
	if len(got) != len(want) {
		t.Fatalf("reference = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reference = %v, want %v", got, want)
		}
	}
	bad := &Result{Output: []uint64{1, 3}}
	if err := Verify(Reference(r, s), bad); err == nil {
		t.Error("expected verification failure for missing key")
	}
	bad2 := &Result{Output: []uint64{1, 3, 5}}
	if err := Verify(Reference(r, s), bad2); err == nil {
		t.Error("expected verification failure for wrong key")
	}
}

// TestRepeatedKeysAcrossProtocols feeds bags, not sets: keys repeat within
// a fragment, across nodes, and on both sides. Every protocol must still
// emit R ∩ S once in Output, and each node's fragment must be an ascending,
// repeat-free subset of it — the contract the sort-and-merge local step
// keeps from the hash sets it replaced. Homes large enough to reach the
// radix path (≥ 64 keys) are part of the draw.
func TestRepeatedKeysAcrossProtocols(t *testing.T) {
	star, _ := topology.Star([]float64{1, 2, 4, 8})
	tree, _ := topology.TwoTier([]int{2, 3}, []float64{2, 1}, 4)
	protocols := []struct {
		name string
		run  func(*topology.Tree, dataset.Placement, dataset.Placement, uint64, ...netsim.Option) (*Result, error)
	}{{"tree", Tree}, {"uniformHash", UniformHash}}
	for iter := 0; iter < 100; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		tr := tree
		if iter%2 == 1 {
			tr = star
		}
		dom := 1 + rng.Intn(600)
		bag := func(n int) dataset.Placement {
			pl := make(dataset.Placement, tr.NumCompute())
			for ; n > 0; n-- {
				i := rng.Intn(len(pl))
				pl[i] = append(pl[i], uint64(rng.Intn(dom))<<uint(8*rng.Intn(7)))
			}
			return pl
		}
		r, s := bag(rng.Intn(1500)), bag(rng.Intn(1500))
		want := Reference(r, s)
		inWant := make(map[uint64]bool, len(want))
		for _, k := range want {
			inWant[k] = true
		}
		for _, p := range protocols {
			res, err := p.run(tr, r, s, 5)
			if err != nil {
				t.Fatalf("iter %d %s: %v", iter, p.name, err)
			}
			if err := Verify(Reference(r, s), res); err != nil {
				t.Fatalf("iter %d %s: %v", iter, p.name, err)
			}
			for i, frag := range res.PerNode {
				for j, k := range frag {
					if !inWant[k] || (j > 0 && frag[j-1] >= k) {
						t.Fatalf("iter %d %s: node %d fragment is not an ascending subset of R∩S at %d", iter, p.name, i, j)
					}
				}
			}
		}
	}
}
