package sorting

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

func sortInput(t *testing.T, rng *rand.Rand, tr *topology.Tree, n int,
	place func([]uint64, int) (dataset.Placement, error)) dataset.Placement {
	t.Helper()
	keys := dataset.Distinct(rng, n)
	p, err := place(keys, tr.NumCompute())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func uniformPlace(keys []uint64, p int) (dataset.Placement, error) {
	return dataset.SplitUniform(keys, p)
}

// The Algorithm 6 / Lemma 9 apportioning tests moved to
// internal/core/place with Proportional (TestProportionalLemma9,
// TestProportionalZeroCases).

func TestWTSCorrectStar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, _ := topology.UniformStar(4, 1)
	data := sortInput(t, rng, tr, 4000, uniformPlace)
	res, err := WTS(tr, data, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, Reference(data), res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "wts" {
		t.Errorf("strategy = %s, want wts", res.Strategy)
	}
	if got := res.Report.NumRounds(); got > 4 {
		t.Errorf("rounds = %d, want ≤ 4 (Theorem 7)", got)
	}
}

func TestWTSCorrectAcrossTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	topos := map[string]*topology.Tree{"figure1b": topology.Figure1b()}
	if tt, err := topology.TwoTier([]int{3, 2}, []float64{3, 1}, 5); err == nil {
		topos["twotier"] = tt
	}
	if ct, err := topology.Caterpillar([]float64{1, 2, 4}, 3); err == nil {
		topos["caterpillar"] = ct
	}
	for name, tr := range topos {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{100, 2000, 10000} {
				data := sortInput(t, rng, tr, n, uniformPlace)
				res, err := WTS(tr, data, 7)
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(tr, Reference(data), res); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
		})
	}
}

func TestWTSSkewedPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, _ := topology.TwoTier([]int{2, 3}, []float64{2, 1}, 4)
	placements := map[string]func([]uint64, int) (dataset.Placement, error){
		"zipf": func(k []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitZipf(rand.New(rand.NewSource(9)), k, p, 1.3)
		},
		"oneheavy60": func(k []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitOneHeavy(k, p, 2, 0.6)
		},
		"single": func(k []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitSingle(k, p, 0)
		},
	}
	for name, place := range placements {
		t.Run(name, func(t *testing.T) {
			data := sortInput(t, rng, tr, 3000, place)
			res, err := WTS(tr, data, 13)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(tr, Reference(data), res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWTSMajorityGather(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr, _ := topology.UniformStar(3, 1)
	keys := dataset.Distinct(rng, 1000)
	data, _ := dataset.SplitCounts(keys, []int{900, 50, 50})
	res, err := WTS(tr, data, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "gather" {
		t.Errorf("strategy = %s, want gather for a majority holder", res.Strategy)
	}
	if err := Verify(tr, Reference(data), res); err != nil {
		t.Fatal(err)
	}
	if res.Report.NumRounds() != 1 {
		t.Errorf("gather rounds = %d, want 1", res.Report.NumRounds())
	}
}

func TestWTSDuplicateKeys(t *testing.T) {
	tr, _ := topology.UniformStar(4, 1)
	keys := make([]uint64, 2000)
	rng := rand.New(rand.NewSource(5))
	for i := range keys {
		keys[i] = uint64(rng.Intn(50)) // heavy duplication
	}
	data, _ := dataset.SplitUniform(keys, 4)
	res, err := WTS(tr, data, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, Reference(data), res); err != nil {
		t.Fatal(err)
	}
}

// sortEntryPoints are the exported sorts, each run through planSort.
var sortEntryPoints = []struct {
	name string
	run  func(*topology.Tree, dataset.Placement, uint64, ...netsim.Option) (*Result, error)
}{
	{"wts", WTS},
	{"wts-unpriced", func(t *topology.Tree, d dataset.Placement, s uint64, o ...netsim.Option) (*Result, error) {
		return WTSUnpriced(t, d, s, ProportionalLight, o...)
	}},
	{"wts-uniform-light", func(t *topology.Tree, d dataset.Placement, s uint64, o ...netsim.Option) (*Result, error) {
		return WTSUnpriced(t, d, s, UniformLight, o...)
	}},
	{"terasort", TeraSort},
	{"capacity-flat", CapacitySortFlat},
	{"capacity", CapacitySort},
}

// TestSortDegenerateInputs runs every sort entry point on the degenerate
// topotest shapes (one node, a line, compute nodes that are inner nodes)
// and a two-tier tree, and on a three-node star, with no data, one key,
// everything on one node, all-equal keys, one key per node and a tiny
// ragged placement. Every output verifies, costs at least the Theorem 6
// bound, costs nothing on an empty input, and is the same at 1 and 4
// workers.
func TestSortDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type shape struct {
		name string
		tr   *topology.Tree
	}
	var shapes []shape
	for _, i := range []int{8, 9, 10, 0} { // one-node, line, inner-compute, twotier
		name, tr, err := topotest.Draw(rng, i)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{name, tr})
	}
	star, _ := topology.UniformStar(3, 1)
	shapes = append(shapes, shape{"star", star})
	inputs := []struct {
		name string
		gen  func(p int) dataset.Placement
	}{
		{"no data", func(p int) dataset.Placement { return make(dataset.Placement, p) }},
		{"one key", func(p int) dataset.Placement {
			d := make(dataset.Placement, p)
			d[p/2] = []uint64{42}
			return d
		}},
		{"all on one node", func(p int) dataset.Placement {
			d, _ := dataset.SplitSingle(dataset.Distinct(rng, 300), p, p-1)
			return d
		}},
		{"all-equal keys", func(p int) dataset.Placement {
			keys := make([]uint64, 300)
			for i := range keys {
				keys[i] = 7
			}
			d, _ := dataset.SplitUniform(keys, p)
			return d
		}},
		{"one key per node", func(p int) dataset.Placement {
			d := make(dataset.Placement, p)
			for i := range d {
				d[i] = []uint64{uint64(p - i)}
			}
			return d
		}},
		{"tiny ragged", func(p int) dataset.Placement {
			d := make(dataset.Placement, p)
			d[0] = []uint64{5}
			d[p-1] = append(d[p-1], 9, 2)
			return d
		}},
	}
	for _, sh := range shapes {
		p := sh.tr.NumCompute()
		for _, input := range inputs {
			data := input.gen(p)
			ref := Reference(data)
			loads := make(topology.Loads, sh.tr.NumNodes())
			for i, v := range sh.tr.ComputeNodes() {
				loads[v] = int64(len(data[i]))
			}
			lb := lowerbound.Sorting(sh.tr, loads).Value
			for _, ep := range sortEntryPoints {
				at := fmt.Sprintf("%s/%s/%s", sh.name, input.name, ep.name)
				var runs [2]*Result
				for w, workers := range []int{1, 4} {
					res, err := ep.run(sh.tr, data, 3, netsim.WithWorkers(workers))
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if err := Verify(sh.tr, ref, res); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if cost := res.Report.TotalCost(); cost < lb || len(ref) == 0 && cost != 0 {
						t.Errorf("%s: cost %v, lower bound %v", at, cost, lb)
					}
					runs[w] = res
				}
				if !reflect.DeepEqual(runs[0], runs[1]) {
					t.Errorf("%s: results differ between 1 and 4 workers", at)
				}
			}
		}
	}
}

// TestWTSEmptyAndTiny: wTS on a three-node star sorts an empty input at no
// cost and a single key held by the middle node.
func TestWTSEmptyAndTiny(t *testing.T) {
	tr, _ := topology.UniformStar(3, 1)
	empty := make(dataset.Placement, 3)
	res, err := WTS(tr, empty, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, Reference(empty), res); err != nil {
		t.Fatal(err)
	}
	if res.Report.TotalCost() != 0 {
		t.Error("empty input should cost nothing")
	}
	one, _ := dataset.SplitCounts([]uint64{42}, []int{0, 1, 0})
	res, err = WTS(tr, one, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, Reference(one), res); err != nil {
		t.Fatal(err)
	}
}

func TestWTSDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := topology.Figure1b()
	data := sortInput(t, rng, tr, 5000, uniformPlace)
	a, _ := WTS(tr, data, 11)
	b, _ := WTS(tr, data, 11)
	if a.Report.TotalCost() != b.Report.TotalCost() {
		t.Error("same seed produced different costs")
	}
}

func TestTeraSortCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, _ := topology.TwoTier([]int{2, 2}, []float64{1, 3}, 2)
	for _, n := range []int{50, 3000} {
		data := sortInput(t, rng, tr, n, uniformPlace)
		res, err := TeraSort(tr, data, 17)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(tr, Reference(data), res); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Report.NumRounds() != 3 {
			t.Errorf("terasort rounds = %d, want 3", res.Report.NumRounds())
		}
	}
}

func TestGatherBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr, _ := topology.UniformStar(3, 1)
	data := sortInput(t, rng, tr, 500, uniformPlace)
	res, err := planSort(tr, data, 0, awareStride, nil, gatherHeaviest)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, Reference(data), res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "gather" || res.Report.NumRounds() != 1 {
		t.Errorf("gather candidate ran %s in %d rounds", res.Strategy, res.Report.NumRounds())
	}
}

// TestWTSCostEnvelope checks Theorem 7 empirically in its regime
// N ≥ 4|VC|²·ln(|VC|·N): cost within a constant factor of Theorem 6.
func TestWTSCostEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	worst := 0.0
	for iter := 0; iter < 15; iter++ {
		tr, err := topology.Random(rng, 2+rng.Intn(4), 1+rng.Intn(3), 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		p := tr.NumCompute()
		n := 4 * p * p * 20 * 4 // comfortably inside the theorem regime
		data := sortInput(t, rng, tr, n, func(k []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitZipf(rng, k, p, rng.Float64())
		})
		res, err := WTS(tr, data, uint64(iter))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(tr, Reference(data), res); err != nil {
			t.Fatal(err)
		}
		loads := make(topology.Loads, tr.NumNodes())
		for i, v := range tr.ComputeNodes() {
			loads[v] = int64(len(data[i]))
		}
		lb := lowerbound.Sorting(tr, loads)
		if ratio := netsim.Ratio(res.Report.TotalCost(), lb.Value); ratio > worst {
			worst = ratio
		}
	}
	if worst > 30 {
		t.Errorf("worst cost/LB ratio = %.2f exceeds the O(1) envelope", worst)
	}
	if worst <= 0 || math.IsInf(worst, 1) {
		t.Errorf("degenerate worst ratio %v", worst)
	}
}

// TestWTSAdversarialDistribution runs the Theorem 6 lower-bound instance
// (Figure 5): rank-interleaved initial placement, which forces Ω(CLB)
// traffic on every edge; wTS must still sort correctly.
func TestWTSAdversarialDistribution(t *testing.T) {
	tr, err := topology.Caterpillar([]float64{1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.NumCompute()
	n := 4000
	counts := make([]int, p)
	for i := range counts {
		counts[i] = n / p
	}
	sorted := dataset.Sequential(n)
	data, err := dataset.AdversarialSortPlacement(sorted, counts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WTS(tr, data, 21)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, Reference(data), res); err != nil {
		t.Fatal(err)
	}
	// The measured cost must be at least a constant fraction of the lower
	// bound (the LB is what the adversarial instance enforces).
	loads := make(topology.Loads, tr.NumNodes())
	for i, v := range tr.ComputeNodes() {
		loads[v] = int64(len(data[i]))
	}
	lb := lowerbound.Sorting(tr, loads)
	if res.Report.TotalCost() < lb.Value/4 {
		t.Errorf("cost %.1f implausibly below the lower bound %.1f", res.Report.TotalCost(), lb.Value)
	}
}

func TestSortQuick(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := topology.Random(rng, 2+rng.Intn(5), 1+rng.Intn(3), 1, 6)
		if err != nil {
			return false
		}
		n := int(nRaw)%5000 + 1
		keys := dataset.Distinct(rng, n)
		data, err := dataset.SplitZipf(rng, keys, tr.NumCompute(), rng.Float64()*2)
		if err != nil {
			return false
		}
		res, err := WTS(tr, data, uint64(seed))
		if err != nil {
			return false
		}
		return Verify(tr, Reference(data), res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVerifyCatchesBadOutput(t *testing.T) {
	tr, _ := topology.UniformStar(2, 1)
	data, _ := dataset.SplitCounts([]uint64{5, 3, 9, 1}, []int{2, 2})
	order := tr.LeftToRight()

	bad := &Result{PerNode: [][]uint64{{1, 3}, {5}}, Order: order} // lost 9
	if err := Verify(tr, Reference(data), bad); err == nil {
		t.Error("expected error for lost element")
	}
	bad = &Result{PerNode: [][]uint64{{3, 1}, {5, 9}}, Order: order} // unsorted
	if err := Verify(tr, Reference(data), bad); err == nil {
		t.Error("expected error for unsorted fragment")
	}
	bad = &Result{PerNode: [][]uint64{{5, 9}, {1, 3}}, Order: order} // misordered
	if err := Verify(tr, Reference(data), bad); err == nil {
		t.Error("expected error for violated global ordering")
	}
	bad = &Result{PerNode: [][]uint64{{1, 3}, {5, 7}}, Order: order} // 9 became 7
	if err := Verify(tr, Reference(data), bad); err == nil {
		t.Error("expected error for a sorted output that is not a permutation of the input")
	}
	// Misordered, with an ordering that names the first node twice so the
	// second one's fragment is never placed.
	bad = &Result{PerNode: [][]uint64{{9}, {1, 3, 5}}, Order: []topology.NodeID{order[0], order[0]}}
	if err := Verify(tr, Reference(data), bad); err == nil {
		t.Error("expected error for an ordering that repeats a node")
	}
	good := &Result{PerNode: [][]uint64{{1, 3}, {5, 9}}, Order: order}
	if err := Verify(tr, Reference(data), good); err != nil {
		t.Errorf("good output rejected: %v", err)
	}
	// Any ordering is admissible as long as the fragments follow it.
	good = &Result{PerNode: [][]uint64{{5, 9}, {1, 3}}, Order: []topology.NodeID{order[1], order[0]}}
	if err := Verify(tr, Reference(data), good); err != nil {
		t.Errorf("good output along the reversed ordering rejected: %v", err)
	}
}

func TestSampleRate(t *testing.T) {
	if SampleRate(4, 0) != 0 {
		t.Error("empty input should sample nothing")
	}
	if SampleRate(4, 10) != 1 {
		t.Error("tiny input should sample everything")
	}
	r := SampleRate(4, 1000000)
	if r <= 0 || r >= 1 {
		t.Errorf("rate = %v out of range", r)
	}
}

// TestReferenceIsSortedInput: the byte-grouped Reference equals the sorted
// concatenation of the fragments whichever byte first varies — all keys
// equal, keys that differ in the low byte only, in the top byte only, full
// 64-bit keys, heavy repeats — and for empty input.
func TestReferenceIsSortedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	gens := map[string]func() uint64{
		"equal":    func() uint64 { return 0xabcdef },
		"low byte": func() uint64 { return 0x1234_0000 | uint64(rng.Intn(256)) },
		"top byte": func() uint64 { return uint64(rng.Intn(256))<<56 | 77 },
		"full":     rng.Uint64,
		"repeats":  func() uint64 { return uint64(rng.Intn(40)) << 20 },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 63, 5000} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = gen()
			}
			data, err := dataset.SplitZipf(rng, keys, 5, 1.1)
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			if got := Reference(data); !slices.Equal(got, want) {
				t.Fatalf("%s, n=%d: Reference is not the sorted input", name, n)
			}
		}
	}
}
