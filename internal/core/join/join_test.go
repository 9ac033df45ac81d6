package join

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// genJoin builds relations with controlled key overlap and multiplicities.
func genJoin(rng *rand.Rand, p, nR, nS, keySpace int) (Placement, Placement) {
	r := make(Placement, p)
	s := make(Placement, p)
	for i := 0; i < nR; i++ {
		n := rng.Intn(p)
		r[n] = append(r[n], Tuple{Key: uint64(rng.Intn(keySpace)), Payload: rng.Uint64()})
	}
	for i := 0; i < nS; i++ {
		n := rng.Intn(p)
		s[n] = append(s[n], Tuple{Key: uint64(rng.Intn(keySpace)), Payload: rng.Uint64()})
	}
	return r, s
}

func TestReferenceSize(t *testing.T) {
	r := Placement{{{Key: 1, Payload: 10}, {Key: 1, Payload: 11}}, {{Key: 2, Payload: 12}}}
	s := Placement{{{Key: 1, Payload: 20}}, {{Key: 3, Payload: 21}, {Key: 1, Payload: 22}}}
	// Key 1: 2 R-tuples × 2 S-tuples = 4; keys 2, 3 unmatched.
	if got := Reference(r, s).Size; got != 4 {
		t.Errorf("reference size = %d, want 4", got)
	}
}

// TestOnePlanRunsUnpriced: planned with one strategy runs its round
// without pricing it, as UniformHash does, while Tree prices its three
// plans' rounds and runs one.
func TestOnePlanRunsUnpriced(t *testing.T) {
	tr, err := topology.TwoTier([]int{3, 2}, []float64{2, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, s := genJoin(rand.New(rand.NewSource(2)), tr.NumCompute(), 300, 900, 100)
	runs := map[string]func(opts ...netsim.Option) (*Result, error){
		"Tree":        func(opts ...netsim.Option) (*Result, error) { return Tree(tr, r, s, 7, opts...) },
		"UniformHash": func(opts ...netsim.Option) (*Result, error) { return UniformHash(tr, r, s, 7, opts...) },
	}
	for _, strategy := range []string{StrategyBlocks, StrategyCapacityHash, StrategyUniformHash} {
		runs[strategy] = func(opts ...netsim.Option) (*Result, error) { return planned(tr, r, s, 7, opts, strategy) }
	}
	for name, run := range runs {
		reg := obs.NewRegistry()
		res, err := run(netsim.WithMetrics(reg))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Verify(Reference(r, s), res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := int64(0)
		if name == "Tree" {
			want = 3
		}
		if got := reg.Counter("netsim.priced_rounds").Value(); got != want {
			t.Errorf("%s: netsim.priced_rounds = %d, want %d", name, got, want)
		}
		if got := reg.Counter("netsim.rounds").Value(); got != 1 {
			t.Errorf("%s: netsim.rounds = %d, want 1", name, got)
		}
	}
}

func TestTreeJoinCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	topos := map[string]*topology.Tree{"figure1b": topology.Figure1b()}
	if tt, err := topology.TwoTier([]int{3, 2}, []float64{2, 1}, 4); err == nil {
		topos["twotier"] = tt
	}
	for name, tr := range topos {
		t.Run(name, func(t *testing.T) {
			r, s := genJoin(rng, tr.NumCompute(), 300, 900, 100)
			res, err := Tree(tr, r, s, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(Reference(r, s), res); err != nil {
				t.Fatal(err)
			}
			if res.Report.NumRounds() != 1 {
				t.Errorf("rounds = %d, want 1", res.Report.NumRounds())
			}
		})
	}
}

func TestTreeJoinSwappedSides(t *testing.T) {
	// |S| < |R| exercises the swap path including sample orientation.
	rng := rand.New(rand.NewSource(2))
	tr, _ := topology.UniformStar(4, 1)
	r, s := genJoin(rng, 4, 1200, 100, 50)
	res, err := Tree(tr, r, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(Reference(r, s), res); err != nil {
		t.Fatal(err)
	}
}

func TestTreeJoinMultiplicities(t *testing.T) {
	// Heavy key duplication: key 7 appears 50× in R and 40× in S.
	tr, _ := topology.UniformStar(3, 1)
	r := make(Placement, 3)
	s := make(Placement, 3)
	for i := 0; i < 50; i++ {
		r[i%3] = append(r[i%3], Tuple{Key: 7, Payload: uint64(i)})
	}
	for i := 0; i < 40; i++ {
		s[i%3] = append(s[i%3], Tuple{Key: 7, Payload: uint64(1000 + i)})
	}
	res, err := Tree(tr, r, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPairs() != 50*40 {
		t.Errorf("pairs = %d, want 2000", res.TotalPairs())
	}
	if err := Verify(Reference(r, s), res); err != nil {
		t.Fatal(err)
	}
}

func TestTreeJoinEmpty(t *testing.T) {
	tr, _ := topology.UniformStar(2, 1)
	empty := make(Placement, 2)
	res, err := Tree(tr, empty, empty, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPairs() != 0 || res.Report.TotalCost() != 0 {
		t.Error("empty join should emit nothing at no cost")
	}
}

func TestTreeJoinMismatch(t *testing.T) {
	tr, _ := topology.UniformStar(3, 1)
	if _, err := Tree(tr, make(Placement, 2), make(Placement, 3), 1); err == nil {
		t.Error("expected placement mismatch error")
	}
	if _, err := UniformHash(tr, make(Placement, 2), make(Placement, 3), 1); err == nil {
		t.Error("expected placement mismatch error")
	}
}

func TestUniformHashJoinCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, _ := topology.TwoTier([]int{2, 2}, []float64{4, 1}, 4)
	r, s := genJoin(rng, tr.NumCompute(), 400, 400, 80)
	res, err := UniformHash(tr, r, s, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(Reference(r, s), res); err != nil {
		t.Fatal(err)
	}
}

func TestTreeJoinBeatsUniformOnSkewedPlacement(t *testing.T) {
	// S lives almost entirely in one rack behind a weak uplink; the
	// topology-aware plan keeps S-groups rack-local.
	tr, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.NumCompute()
	rng := rand.New(rand.NewSource(4))
	r := make(Placement, p)
	s := make(Placement, p)
	for i := 0; i < 400; i++ {
		r[rng.Intn(p)] = append(r[rng.Intn(p)], Tuple{Key: uint64(rng.Intn(200)), Payload: rng.Uint64()})
	}
	for i := 0; i < 4000; i++ {
		n := rng.Intn(4) // fast rack only
		s[n] = append(s[n], Tuple{Key: uint64(rng.Intn(200)), Payload: rng.Uint64()})
	}
	aware, err := Tree(tr, r, s, 11)
	if err != nil {
		t.Fatal(err)
	}
	oblivious, err := UniformHash(tr, r, s, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(Reference(r, s), aware); err != nil {
		t.Fatal(err)
	}
	if err := Verify(Reference(r, s), oblivious); err != nil {
		t.Fatal(err)
	}
	if aware.Report.TotalCost() >= oblivious.Report.TotalCost() {
		t.Errorf("aware join cost %.1f should beat oblivious %.1f",
			aware.Report.TotalCost(), oblivious.Report.TotalCost())
	}
}

func TestJoinQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := topology.Random(rng, 2+rng.Intn(5), 1+rng.Intn(3), 1, 4)
		if err != nil {
			return false
		}
		r, s := genJoin(rng, tr.NumCompute(), 50+rng.Intn(300), 50+rng.Intn(300), 5+rng.Intn(100))
		res, err := Tree(tr, r, s, uint64(seed))
		if err != nil {
			return false
		}
		return Verify(Reference(r, s), res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVerifyCatchesBadPairs(t *testing.T) {
	r := Placement{{{Key: 1, Payload: 10}}}
	s := Placement{{{Key: 1, Payload: 20}}}
	bad := &Result{
		PerNode: []int64{1},
		Sample:  [][]Pair{{{Key: 1, X: 99, Y: 20}}}, // X not in R
	}
	if err := Verify(Reference(r, s), bad); err == nil {
		t.Error("fabricated R payload accepted")
	}
	wrongCount := &Result{PerNode: []int64{2}, Sample: [][]Pair{nil}}
	if err := Verify(Reference(r, s), wrongCount); err == nil {
		t.Error("wrong pair count accepted")
	}
}

// degenerateJoin draws a small join input on p nodes, bent by variant:
// 0 an empty R, 1 all data on one node, 2 one key carrying half the rows,
// 3 every tuple twice, 4 as drawn, 5 an empty S, 6 one key carrying every
// row, 7 one key per node.
func degenerateJoin(rng *rand.Rand, variant, p int) (r, s Placement) {
	r, s = genJoin(rng, p, 40+rng.Intn(200), 40+rng.Intn(400), 5+rng.Intn(60))
	for _, rel := range []Placement{r, s} {
		switch variant {
		case 1:
			for i := 1; i < p; i++ {
				rel[0] = append(rel[0], rel[i]...)
				rel[i] = nil
			}
		case 2:
			for _, frag := range rel {
				for j := range frag {
					if j%2 == 0 {
						frag[j].Key = 3
					}
				}
			}
		case 3:
			for i, frag := range rel {
				rel[i] = append(frag, frag...)
			}
		case 6:
			for _, frag := range rel {
				for j := range frag {
					frag[j].Key = 3
				}
			}
		case 7:
			for i := range rel {
				rel[i] = []Tuple{{Key: uint64(i), Payload: rng.Uint64()}}
			}
		}
	}
	switch variant {
	case 0:
		r = make(Placement, p)
	case 5:
		s = make(Placement, p)
	}
	return r, s
}

// placedJoin draws a join input on p nodes under one of the four placements
// the golden fixtures use: uniform, zipf, oneheavy (80% on the first node)
// or single (everything on the last node).
func placedJoin(rng *rand.Rand, placement string, p int) (r, s Placement, err error) {
	split := func(keys []uint64) (dataset.Placement, error) {
		switch placement {
		case "uniform":
			return dataset.SplitUniform(keys, p)
		case "zipf":
			return dataset.SplitZipf(rng, keys, p, 1.2)
		case "oneheavy":
			return dataset.SplitOneHeavy(keys, p, 0, 0.8)
		default:
			return dataset.SplitSingle(keys, p, p-1)
		}
	}
	rel := func(n, keySpace int) (Placement, error) {
		keys := make([]uint64, n)
		for j := range keys {
			keys[j] = uint64(rng.Intn(keySpace))
		}
		frags, err := split(keys)
		out := make(Placement, p)
		for i, frag := range frags {
			for _, k := range frag {
				out[i] = append(out[i], Tuple{Key: k, Payload: rng.Uint64()})
			}
		}
		return out, err
	}
	keySpace := 5 + rng.Intn(300)
	if r, err = rel(40+rng.Intn(300), keySpace); err != nil {
		return nil, nil, err
	}
	s, err = rel(40+rng.Intn(600), keySpace)
	return r, s, err
}

// joinPlacements are the placements placedJoin draws, after the eight
// variants of degenerateJoin.
var joinPlacements = []string{"uniform", "zipf", "oneheavy", "single"}

// TestJoinDegenerateInputsAcrossWorkers runs both protocols on every
// topotest shape (one-node, line, inner-compute and two-tier among them)
// with degenerate inputs — empty R or S, all data on one node, half or all
// keys equal, every tuple twice, one key per node — as drawn, and under the
// four golden placements: the result must verify and be the same at
// workers 1, 2, 4 and 7. Tree must cost exactly the least of its three
// plans run alone, and name the first plan of that cost; each plan must be
// the cheapest somewhere on the grid.
// The per-home joins fork on the pool; run with -race -count=10.
func TestJoinDegenerateInputsAcrossWorkers(t *testing.T) {
	protocols := map[string]func(*topology.Tree, Placement, Placement, uint64, ...netsim.Option) (*Result, error){
		"tree": Tree, "uniform": UniformHash,
	}
	strategies := []string{StrategyBlocks, StrategyCapacityHash, StrategyUniformHash}
	variants := 8 + len(joinPlacements)
	won := make(map[string]int)
	for iter := 0; iter < variants*topotest.NumShapes; iter++ {
		rng := rand.New(rand.NewSource(int64(300 + iter)))
		shape, tr, err := topotest.Draw(rng, iter)
		if err != nil {
			t.Fatal(err)
		}
		var r, s Placement
		if v := iter / topotest.NumShapes; v < 8 {
			r, s = degenerateJoin(rng, v, tr.NumCompute())
		} else if r, s, err = placedJoin(rng, joinPlacements[v-8], tr.NumCompute()); err != nil {
			t.Fatal(err)
		}
		for name, run := range protocols {
			var want *Result
			for _, workers := range []int{1, 2, 4, 7} {
				res, err := run(tr, r, s, uint64(iter), netsim.WithWorkers(workers))
				if err != nil {
					t.Fatalf("iter %d %s %s workers=%d: %v", iter, shape, name, workers, err)
				}
				if err := Verify(Reference(r, s), res); err != nil {
					t.Fatalf("iter %d %s %s workers=%d: %v", iter, shape, name, workers, err)
				}
				if want == nil {
					want = res
				} else if !reflect.DeepEqual(res.PerNode, want.PerNode) || !reflect.DeepEqual(res.Sample, want.Sample) ||
					!reflect.DeepEqual(res.Blocks, want.Blocks) || res.Strategy != want.Strategy ||
					res.Report.TotalCost() != want.Report.TotalCost() {
					t.Fatalf("iter %d %s %s: workers=%d result differs from workers=1", iter, shape, name, workers)
				}
			}
			if name != "tree" {
				continue
			}
			least, first := math.Inf(1), ""
			for _, strategy := range strategies {
				alone, err := planned(tr, r, s, uint64(iter), nil, strategy)
				if err != nil {
					t.Fatalf("iter %d %s %s alone: %v", iter, shape, strategy, err)
				}
				if err := Verify(Reference(r, s), alone); err != nil {
					t.Fatalf("iter %d %s %s alone: %v", iter, shape, strategy, err)
				}
				if cost := alone.Report.TotalCost(); cost < least {
					least, first = cost, strategy
				}
			}
			if got := want.Report.TotalCost(); got != least || want.Strategy != first {
				t.Fatalf("iter %d %s: Tree ran %s for %v, the least plan alone is %s for %v",
					iter, shape, want.Strategy, got, first, least)
			}
			won[first]++
		}
	}
	for _, strategy := range strategies {
		if won[strategy] == 0 {
			t.Errorf("no input has %s as the cheapest plan (wins: %v)", strategy, won)
		}
	}
	t.Logf("cheapest plans: %v", won)
}
