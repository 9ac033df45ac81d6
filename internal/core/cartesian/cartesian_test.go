package cartesian

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

func TestRectBasics(t *testing.T) {
	r := Rect{X0: 2, X1: 6, Y0: 1, Y1: 4}
	if r.Empty() {
		t.Error("non-degenerate rect reported empty")
	}
	if r.Area() != 12 {
		t.Errorf("area = %d, want 12", r.Area())
	}
	c := r.Clamp(4, 10)
	if c.X1 != 4 || c.Area() != 6 {
		t.Errorf("clamp = %+v", c)
	}
	if !(Rect{X0: 5, X1: 5, Y0: 0, Y1: 3}).Empty() {
		t.Error("zero-width rect should be empty")
	}
	if (Rect{X0: 8, X1: 9, Y0: 0, Y1: 1}).Clamp(5, 5).Area() != 0 {
		t.Error("out-of-grid rect should clamp to empty")
	}
}

func TestCoversGrid(t *testing.T) {
	full := []Rect{{0, 10, 0, 10}}
	if !CoversGrid(full, 10, 10) {
		t.Error("full rect should cover")
	}
	quad := []Rect{{0, 5, 0, 5}, {5, 10, 0, 5}, {0, 5, 5, 10}, {5, 10, 5, 10}}
	if !CoversGrid(quad, 10, 10) {
		t.Error("four quadrants should cover")
	}
	hole := []Rect{{0, 5, 0, 10}, {5, 10, 0, 4}, {5, 10, 5, 10}}
	if CoversGrid(hole, 10, 10) {
		t.Error("grid with hole at (5..10, 4..5) reported covered")
	}
	if !CoversGrid(nil, 0, 5) {
		t.Error("empty grid should be trivially covered")
	}
	overlap := []Rect{{0, 8, 0, 10}, {3, 10, 0, 10}}
	if !CoversGrid(overlap, 10, 10) {
		t.Error("overlapping cover should be accepted")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int64]int64{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
	if got := nextPow2F(2.5); got != 4 {
		t.Errorf("nextPow2F(2.5) = %d, want 4", got)
	}
	if got := nextPow2F(0.3); got != 1 {
		t.Errorf("nextPow2F(0.3) = %d, want 1", got)
	}
}

func TestPackLemma5CoverageBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		k := 1 + rng.Intn(12)
		sides := make([]int64, k)
		owners := make([]topology.NodeID, k)
		var sumSq float64
		for i := range sides {
			sides[i] = int64(1) << uint(rng.Intn(8))
			owners[i] = topology.NodeID(i)
			sumSq += float64(sides[i] * sides[i])
		}
		placed, covered, err := PackLemma5(sides, owners)
		if err != nil {
			t.Fatal(err)
		}
		if len(placed) != k {
			t.Fatalf("placed %d of %d squares", len(placed), k)
		}
		// Lemma 5: fully covered square of side >= sqrt(Σ d²)/2.
		if float64(covered) < math.Sqrt(sumSq)/2 {
			t.Fatalf("covered side %d < sqrt(%v)/2", covered, sumSq)
		}
		// The covered square really is covered.
		rects := make([]Rect, len(placed))
		for i, p := range placed {
			rects[i] = p.Rect()
		}
		if !CoversGrid(rects, covered, covered) {
			t.Fatalf("claimed covered square %d is not covered", covered)
		}
		// No two leaf squares overlap.
		for i := 0; i < len(placed); i++ {
			for j := i + 1; j < len(placed); j++ {
				a, b := placed[i].Rect(), placed[j].Rect()
				if a.X0 < b.X1 && b.X0 < a.X1 && a.Y0 < b.Y1 && b.Y0 < a.Y1 {
					t.Fatalf("squares %d and %d overlap: %+v %+v", i, j, a, b)
				}
			}
		}
	}
}

func TestPackLemma5Errors(t *testing.T) {
	if _, _, err := PackLemma5([]int64{3}, []topology.NodeID{0}); err == nil {
		t.Error("expected error for non-power-of-two side")
	}
	if _, _, err := PackLemma5([]int64{2}, nil); err == nil {
		t.Error("expected error for owner mismatch")
	}
	placed, covered, err := PackLemma5(nil, nil)
	if err != nil || placed != nil || covered != 0 {
		t.Error("empty packing should be a no-op")
	}
}

func TestPackOnTreeContiguity(t *testing.T) {
	// On a two-tier tree, the squares below each rack uplink must form a
	// compact region: total span bounded by the composite perimeter bound
	// 8·2^(i*) of §4.4 rather than the sum of the individual sides.
	tr, err := topology.TwoTier([]int{4, 4}, []float64{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	loads := make(topology.Loads, tr.NumNodes())
	for _, v := range tr.ComputeNodes() {
		loads[v] = 10
	}
	d := topology.Orient(tr, loads)
	side := make(map[topology.NodeID]int64)
	for _, v := range tr.ComputeNodes() {
		side[v] = 4
	}
	placed, covered, err := PackOnTree(d, side)
	if err != nil {
		t.Fatal(err)
	}
	if covered < 8 {
		// 8 squares of side 4: Σd² = 128, covered ≥ sqrt(128)/2 ≈ 5.6 → at
		// least 8 as a power of two.
		t.Fatalf("covered = %d, want ≥ 8", covered)
	}
	// Each rack's 4 squares (side 4) merge into one 8×8 composite: their
	// bounding box must be exactly 8×8.
	byRack := map[topology.NodeID][]PlacedSquare{}
	for _, p := range placed {
		parent, _ := tr.Parent(p.Node)
		byRack[parent] = append(byRack[parent], p)
	}
	for rack, squares := range byRack {
		var minX, minY, maxX, maxY int64 = 1 << 62, 1 << 62, 0, 0
		for _, p := range squares {
			minX = min(minX, p.X)
			minY = min(minY, p.Y)
			maxX = max(maxX, p.X+p.Side)
			maxY = max(maxY, p.Y+p.Side)
		}
		if maxX-minX > 8 || maxY-minY > 8 {
			t.Errorf("rack %v squares span %dx%d, want compact 8x8", rack, maxX-minX, maxY-minY)
		}
	}
}

// cpInstance builds an equal-size cartesian instance.
func cpInstance(t *testing.T, rng *rand.Rand, tr *topology.Tree, half int,
	place func([]uint64, int) (dataset.Placement, error)) (dataset.Placement, dataset.Placement) {
	t.Helper()
	p := tr.NumCompute()
	r := dataset.Distinct(rng, half)
	s := dataset.Distinct(rng, half)
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

// placements are the four ways the tests spread a relation over the nodes.
var placements = []string{"uniform", "zipf", "oneheavy", "single"}

// split spreads keys over p nodes by the named placement; oneheavy and
// single draw their node from rng.
func split(t *testing.T, rng *rand.Rand, how string, keys []uint64, p int) dataset.Placement {
	t.Helper()
	var pl dataset.Placement
	var err error
	switch how {
	case "uniform":
		pl, err = dataset.SplitUniform(keys, p)
	case "zipf":
		pl, err = dataset.SplitZipf(rng, keys, p, 1.2)
	case "oneheavy":
		pl, err = dataset.SplitOneHeavy(keys, p, rng.Intn(p), 0.8)
	case "single":
		pl, err = dataset.SplitSingle(keys, p, rng.Intn(p))
	}
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func uniformPlace(keys []uint64, p int) (dataset.Placement, error) {
	return dataset.SplitUniform(keys, p)
}

func TestStarCartesianWHC(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, _ := topology.Star([]float64{1, 2, 4, 8})
	r, s := cpInstance(t, rng, tr, 400, uniformPlace)
	res, err := Tree(tr, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "tree" {
		t.Errorf("strategy = %s, want tree", res.Strategy)
	}
	if res.Report.NumRounds() != 1 {
		t.Errorf("rounds = %d, want 1 (Table 1)", res.Report.NumRounds())
	}
	if err := Verify(r, s, res); err != nil {
		t.Fatal(err)
	}
	if res.Pairs() < 400*400 {
		t.Errorf("enumerated %d pairs, want ≥ %d", res.Pairs(), 400*400)
	}
}

// TestVerifyRejectsTamperedResults holds Verify to naming each way a result
// can go wrong: a grid left uncovered, a node with no rectangle that still
// received tuples, and an S-column that is not the one its rectangle spans.
func TestVerifyRejectsTamperedResults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, _ := topology.Star([]float64{1, 2, 4, 8})
	r, s := cpInstance(t, rng, tr, 400, uniformPlace)
	res, err := Tree(tr, r, s)
	if err != nil {
		t.Fatal(err)
	}
	// full is a node with a rectangle, idle one without.
	full := slices.IndexFunc(res.Rects, func(r Rect) bool { return !r.Empty() })
	idle := slices.IndexFunc(res.Rects, Rect.Empty)
	if full < 0 || idle < 0 {
		t.Fatalf("rectangles %v: want a node with a rectangle and one without", res.Rects)
	}
	for _, tc := range []struct {
		name, want string
		tamper     func(rects []Rect, sKeys [][]uint64)
	}{
		{"uncovered", "do not cover the grid", func(rects []Rect, _ [][]uint64) { rects[full] = Rect{} }},
		{"empty with data", "empty rectangle but received data", func(_ []Rect, sKeys [][]uint64) {
			sKeys[idle] = append(sKeys[idle], s.Flatten()[0])
		}},
		{"wrong column", "S-cols", func(_ []Rect, sKeys [][]uint64) { sKeys[full][0]++ }},
	} {
		bad := *res
		bad.Rects = slices.Clone(res.Rects)
		bad.SKeys = slices.Clone(res.SKeys)
		bad.SKeys[idle] = slices.Clone(res.SKeys[idle])
		bad.SKeys[full] = slices.Clone(res.SKeys[full])
		tc.tamper(bad.Rects, bad.SKeys)
		if err := Verify(r, s, &bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	if err := Verify(r, s, res); err != nil {
		t.Fatalf("tampering a copy changed the result: %v", err)
	}
}

func TestStarCartesianGatherOnMajority(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, _ := topology.UniformStar(3, 1)
	r := dataset.Distinct(rng, 300)
	s := dataset.Distinct(rng, 300)
	pr, _ := dataset.SplitCounts(r, []int{290, 10, 0})
	ps, _ := dataset.SplitCounts(s, []int{300, 0, 0})
	res, err := Tree(tr, pr, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "gather" {
		t.Errorf("strategy = %s, want gather (node 0 holds a majority)", res.Strategy)
	}
	if err := Verify(pr, ps, res); err != nil {
		t.Fatal(err)
	}
	// The majority holder receives only what it lacks: cost = (N - N_max)/w.
	if got, want := res.Report.TotalCost(), 10.0; got != want {
		t.Errorf("gather cost = %v, want %v", got, want)
	}
}

// TestStarCartesianRejects: the star protocols refuse what they do not
// cover — Unequal a tree that is not a star, Tree (Algorithm 4 on a star)
// unequal sizes.
func TestStarCartesianRejects(t *testing.T) {
	tr := topology.Figure1b()
	r := make(dataset.Placement, tr.NumCompute())
	s := make(dataset.Placement, tr.NumCompute())
	if _, err := Unequal(tr, r, s); err == nil {
		t.Error("expected error on non-star topology")
	}
	star, _ := topology.UniformStar(2, 1)
	r2, _ := dataset.SplitUniform(dataset.Sequential(10), 2)
	s2, _ := dataset.SplitUniform(dataset.Sequential(12), 2)
	if _, err := Tree(star, r2, s2); err == nil {
		t.Error("expected error for unequal sizes")
	}
}

// TestTreeCartesianCorrectAcrossTopologies runs Tree on trees and on stars
// with +Inf links — every link infinite, and a mix of infinite and finite
// ones — under the four placements. Each run takes one round, passes
// Verify, costs at least the Theorem 3/4 bound, and gives the same result
// at 1 and 4 workers.
func TestTreeCartesianCorrectAcrossTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inf := math.Inf(1)
	topos := map[string]*topology.Tree{"figure1b": topology.Figure1b()}
	if tt, err := topology.TwoTier([]int{2, 3, 2}, []float64{4, 1, 2}, 8); err == nil {
		topos["twotier"] = tt
	}
	if ct, err := topology.Caterpillar([]float64{2, 1, 3}, 4); err == nil {
		topos["caterpillar"] = ct
	}
	if ft, err := topology.FatTree(2, 2, 1, 3); err == nil {
		topos["fattree"] = ft
	}
	for name, bws := range map[string][]float64{
		"star-all-inf":   {inf, inf, inf, inf},
		"star-mixed-inf": {inf, inf, 2, 0.5, 2, inf, 4, 8, 1},
	} {
		st, err := topology.Star(bws)
		if err != nil {
			t.Fatal(err)
		}
		topos[name] = st
	}
	for name, tr := range topos {
		t.Run(name, func(t *testing.T) {
			for _, how := range placements {
				r := split(t, rng, how, dataset.Distinct(rng, 256), tr.NumCompute())
				s := split(t, rng, how, dataset.Distinct(rng, 256), tr.NumCompute())
				loads := make(topology.Loads, tr.NumNodes())
				for i, v := range tr.ComputeNodes() {
					loads[v] = int64(len(r[i]) + len(s[i]))
				}
				lb := lowerbound.Cartesian(tr, loads).Value
				var runs [2]*Result
				for w, workers := range []int{1, 4} {
					res, err := Tree(tr, r, s, netsim.WithWorkers(workers))
					if err != nil {
						t.Fatalf("%s workers=%d: %v", how, workers, err)
					}
					if err := Verify(r, s, res); err != nil {
						t.Fatalf("%s workers=%d: %v", how, workers, err)
					}
					if res.Report.NumRounds() != 1 {
						t.Errorf("%s workers=%d: rounds = %d, want 1", how, workers, res.Report.NumRounds())
					}
					if cost := res.Report.TotalCost(); cost < lb {
						t.Errorf("%s workers=%d: cost %v below the lower bound %v", how, workers, cost, lb)
					}
					runs[w] = res
				}
				if !reflect.DeepEqual(runs[0], runs[1]) {
					t.Errorf("%s: results differ between 1 and 4 workers", how)
				}
			}
		})
	}
}

func TestTreeCartesianInternalComputeNodes(t *testing.T) {
	// A compute node with degree 2 forces the §2.1 leaf normalization.
	b := topology.NewBuilder()
	v1 := b.Compute("v1")
	v2 := b.Compute("v2")
	v3 := b.Compute("v3")
	b.Link(v2, v1, 2)
	b.Link(v3, v1, 3)
	tr := b.MustBuild()

	rng := rand.New(rand.NewSource(5))
	r, s := cpInstance(t, rng, tr, 128, uniformPlace)
	res, err := Tree(tr, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(r, s, res); err != nil {
		t.Fatal(err)
	}
}

func TestTreeCartesianGatherWhenRootIsCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr, _ := topology.UniformStar(3, 1)
	r := dataset.Distinct(rng, 200)
	s := dataset.Distinct(rng, 200)
	pr, _ := dataset.SplitCounts(r, []int{200, 0, 0})
	ps, _ := dataset.SplitCounts(s, []int{150, 50, 0})
	res, err := Tree(tr, pr, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "gather" {
		t.Errorf("strategy = %s, want gather", res.Strategy)
	}
	if err := Verify(pr, ps, res); err != nil {
		t.Fatal(err)
	}
}

// TestTreeCartesianCostEnvelope checks Theorem 5 empirically: cost within a
// constant factor of max(Theorem 3, Theorem 4).
func TestTreeCartesianCostEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	worst := 0.0
	for iter := 0; iter < 25; iter++ {
		tr, err := topology.Random(rng, 2+rng.Intn(8), 1+rng.Intn(4), 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		p := tr.NumCompute()
		half := 128 + rng.Intn(512)
		r := dataset.Distinct(rng, half)
		s := dataset.Distinct(rng, half)
		pr, _ := dataset.SplitZipf(rng, r, p, rng.Float64()*1.5)
		ps, _ := dataset.SplitZipf(rng, s, p, rng.Float64()*1.5)
		res, err := Tree(tr, pr, ps)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(pr, ps, res); err != nil {
			t.Fatal(err)
		}
		loads := make(topology.Loads, tr.NumNodes())
		for i, v := range tr.ComputeNodes() {
			loads[v] = int64(len(pr[i]) + len(ps[i]))
		}
		lb := lowerbound.Cartesian(tr, loads)
		ratio := netsim.Ratio(res.Report.TotalCost(), lb.Value)
		if ratio > worst {
			worst = ratio
		}
	}
	if worst > 40 {
		t.Errorf("worst cost/LB ratio = %.2f exceeds the O(1) envelope", worst)
	}
	if worst <= 0 || math.IsInf(worst, 1) {
		t.Errorf("degenerate worst ratio %v", worst)
	}
}

func TestUnequalCartesian(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr, _ := topology.Star([]float64{1, 3, 2, 6})
	for _, sizes := range [][2]int{{50, 1000}, {300, 400}, {1, 500}, {128, 128}} {
		r := dataset.Distinct(rng, sizes[0])
		s := dataset.Distinct(rng, sizes[1])
		pr, _ := dataset.SplitUniform(r, 4)
		ps, _ := dataset.SplitUniform(s, 4)
		res, err := Unequal(tr, pr, ps)
		if err != nil {
			t.Fatalf("sizes %v: %v", sizes, err)
		}
		if err := Verify(pr, ps, res); err != nil {
			t.Fatalf("sizes %v: %v", sizes, err)
		}
		if res.Report.NumRounds() > 1 {
			t.Errorf("sizes %v: rounds = %d, want ≤ 1", sizes, res.Report.NumRounds())
		}
	}
}

func TestUnequalTransposed(t *testing.T) {
	// |R| > |S| exercises the transposition path.
	rng := rand.New(rand.NewSource(9))
	tr, _ := topology.Star([]float64{2, 2, 5})
	r := dataset.Distinct(rng, 900)
	s := dataset.Distinct(rng, 60)
	pr, _ := dataset.SplitUniform(r, 3)
	ps, _ := dataset.SplitUniform(s, 3)
	res, err := Unequal(tr, pr, ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pr, ps, res); err != nil {
		t.Fatal(err)
	}
}

func TestUnequalMajorityGather(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tr, _ := topology.UniformStar(3, 1)
	r := dataset.Distinct(rng, 100)
	s := dataset.Distinct(rng, 500)
	pr, _ := dataset.SplitCounts(r, []int{100, 0, 0})
	ps, _ := dataset.SplitCounts(s, []int{400, 100, 0})
	res, err := Unequal(tr, pr, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "gather" {
		t.Errorf("strategy = %s, want gather", res.Strategy)
	}
	if err := Verify(pr, ps, res); err != nil {
		t.Fatal(err)
	}
}

func TestBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, _ := topology.TwoTier([]int{2, 2}, []float64{1, 4}, 2)
	r, s := cpInstance(t, rng, tr, 200, uniformPlace)

	t.Run("uniformGrid", func(t *testing.T) {
		res, err := UniformGrid(tr, r, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(r, s, res); err != nil {
			t.Fatal(err)
		}
	})
	// The gather the protocols fall back on with a majority holder.
	gatherAt := func(target int) (*Result, error) {
		in, err := newInstance(tr, r, s)
		if err != nil {
			return nil, err
		}
		return distribute(in, gather(in, target))
	}
	t.Run("gather", func(t *testing.T) {
		res, err := gatherAt(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(r, s, res); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("gatherToTarget", func(t *testing.T) {
		res, err := gatherAt(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(r, s, res); err != nil {
			t.Fatal(err)
		}
		if res.Rects[2].Area() != int64(200)*200 {
			t.Error("target node should own the whole grid")
		}
	})
}

func TestCartesianQuick(t *testing.T) {
	f := func(seed int64, halfRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := topology.Random(rng, 2+rng.Intn(5), 1+rng.Intn(3), 1, 6)
		if err != nil {
			return false
		}
		half := int(halfRaw)%400 + 16
		p := tr.NumCompute()
		r := dataset.Distinct(rng, half)
		s := dataset.Distinct(rng, half)
		pr, err := dataset.SplitZipf(rng, r, p, rng.Float64()*2)
		if err != nil {
			return false
		}
		ps, err := dataset.SplitZipf(rng, s, p, rng.Float64()*2)
		if err != nil {
			return false
		}
		res, err := Tree(tr, pr, ps)
		if err != nil {
			return false
		}
		return Verify(pr, ps, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEmptyInput(t *testing.T) {
	tr, _ := topology.UniformStar(2, 1)
	empty := make(dataset.Placement, 2)
	res, err := Tree(tr, empty, empty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs() != 0 || res.Report.TotalCost() != 0 {
		t.Error("empty input should produce nothing at no cost")
	}
}

func TestBalancedPackingTreeProperties(t *testing.T) {
	// Lemma 8 properties on random trees: w̃_v ≤ w_v, l_v ≤ w̃_v/w̃_r, and
	// w̃_r matches the MinCoverSumSq DP.
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 100; iter++ {
		tr, err := topology.Random(rng, 2+rng.Intn(6), 1+rng.Intn(4), 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		// Make compute nodes leaves for the clean property statement.
		tr, _ = topology.EnsureComputeLeaves(tr)
		loads := make(topology.Loads, tr.NumNodes())
		for _, v := range tr.ComputeNodes() {
			loads[v] = int64(1 + rng.Intn(100))
		}
		d := topology.Orient(tr, loads)
		if d.RootIsCompute() {
			continue
		}
		dims := balancedPackingTree(d, loads.Total())
		_, wTilde, ok := d.MinCoverSumSq()
		if !ok {
			continue
		}
		rootW := dims.wTilde[d.Root()]
		if !almostEq(rootW, wTilde) {
			t.Fatalf("w̃_r = %v but MinCoverSumSq = %v", rootW, wTilde)
		}
		for v := topology.NodeID(0); int(v) < tr.NumNodes(); v++ {
			if v == d.Root() {
				continue
			}
			if w := d.OutBandwidth(v); dims.wTilde[v] > w+1e-9 && !math.IsInf(w, 1) {
				t.Fatalf("w̃_%v = %v > w_%v = %v", v, dims.wTilde[v], v, w)
			}
			if !math.IsInf(dims.wTilde[v], 1) && dims.l[v] > dims.wTilde[v]/rootW+1e-9 {
				t.Fatalf("l_%v = %v > w̃/w̃_r = %v", v, dims.l[v], dims.wTilde[v]/rootW)
			}
		}
		// Σ l² over compute nodes = 1 (property 4 at the root).
		var sum float64
		for _, v := range tr.ComputeNodes() {
			sum += dims.l[v] * dims.l[v]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("Σ l² over compute nodes = %v, want 1", sum)
		}
	}
}

func almostEq(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// Pairs returns the number of output pairs each node enumerates.
func (r *Result) Pairs() int64 {
	var n int64
	for _, rect := range r.Rects {
		n += rect.Area()
	}
	return n
}
