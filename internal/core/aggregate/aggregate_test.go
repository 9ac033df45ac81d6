package aggregate

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"topompc/internal/netsim"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// genData builds pairs with the given number of groups; groupSkew places a
// fraction of all pairs in rack-local groups.
func genData(rng *rand.Rand, p, pairsPerNode, groups int) Placement {
	data := make(Placement, p)
	for i := range data {
		for j := 0; j < pairsPerNode; j++ {
			data[i] = append(data[i], Pair{
				Group: uint64(rng.Intn(groups)),
				Value: int64(rng.Intn(100)),
			})
		}
	}
	return data
}

// runTwoLevel runs the twolevel candidate alone.
func runTwoLevel(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return run(t, data, seed, opts, func(in *instance) ([]candidate, error) {
		c, err := twoLevel(in, seed)
		return []candidate{c}, err
	})
}

func TestReferenceAndVerify(t *testing.T) {
	data := Placement{
		{{Group: 1, Value: 5}, {Group: 2, Value: 3}},
		{{Group: 1, Value: 7}},
	}
	want := Reference(data)
	if want[1] != 12 || want[2] != 3 {
		t.Fatalf("reference = %v", want)
	}
	good := &Result{PerNode: [][]Pair{{{1, 12}}, {{2, 3}}}}
	if err := Verify(Reference(data), good); err != nil {
		t.Errorf("good result rejected: %v", err)
	}
	dupe := &Result{PerNode: [][]Pair{{{1, 12}, {2, 3}}, {{2, 3}}}}
	if err := Verify(Reference(data), dupe); err == nil {
		t.Error("duplicate emission accepted")
	}
	wrong := &Result{PerNode: [][]Pair{{{1, 11}}, {{2, 3}}}}
	if err := Verify(Reference(data), wrong); err == nil {
		t.Error("wrong total accepted")
	}
	missing := &Result{PerNode: [][]Pair{{{1, 12}}, {}}}
	if err := Verify(Reference(data), missing); err == nil {
		t.Error("missing group accepted")
	}
}

func TestLowerBoundByHand(t *testing.T) {
	// Two nodes, unit star. Groups: 1 on both sides, 2 only left, 3 only
	// right. Each leaf cut spans exactly one group (group 1).
	tr, _ := topology.UniformStar(2, 1)
	data := Placement{
		{{Group: 1, Value: 1}, {Group: 2, Value: 1}},
		{{Group: 1, Value: 1}, {Group: 3, Value: 1}},
	}
	if got := LowerBound(tr, data); got != 1 {
		t.Errorf("LB = %v, want 1", got)
	}
	// Disjoint groups: nothing must cross.
	disjoint := Placement{
		{{Group: 2, Value: 1}},
		{{Group: 3, Value: 1}},
	}
	if got := LowerBound(tr, disjoint); got != 0 {
		t.Errorf("LB = %v, want 0 for disjoint groups", got)
	}
}

func TestStrategiesCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	topos := map[string]*topology.Tree{"figure1b": topology.Figure1b()}
	if tt, err := topology.TwoTier([]int{3, 3}, []float64{1, 2}, 8); err == nil {
		topos["twotier"] = tt
	}
	for name, tr := range topos {
		t.Run(name, func(t *testing.T) {
			data := genData(rng, tr.NumCompute(), 200, 50)
			for _, run := range []struct {
				name string
				fn   func() (*Result, error)
			}{
				{"hash", func() (*Result, error) { return Hash(tr, data, 7) }},
				{"twolevel", func() (*Result, error) { return runTwoLevel(tr, data, 7) }},
				{"gather", func() (*Result, error) { return Gather(tr, data, topology.NoNode) }},
			} {
				res, err := run.fn()
				if err != nil {
					t.Fatalf("%s: %v", run.name, err)
				}
				if err := Verify(Reference(data), res); err != nil {
					t.Fatalf("%s: %v", run.name, err)
				}
			}
		})
	}
}

func TestTwoLevelBeatsHashOnRackLocalGroups(t *testing.T) {
	// Rack-local groups shared by all nodes of a rack, weak uplinks: Hash
	// sends one partial per (node, group) across the star; TwoLevel
	// combines within the rack first.
	tr, err := topology.TwoTier([]int{4, 4}, []float64{1, 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.NumCompute()
	data := make(Placement, p)
	for i := 0; i < p; i++ {
		rack := i / 4
		for g := 0; g < 100; g++ {
			// Every node of the rack contributes to every rack group.
			data[i] = append(data[i], Pair{Group: uint64(rack*1000 + g), Value: 1})
		}
	}
	hash, err := Hash(tr, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	two, err := runTwoLevel(tr, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(Reference(data), hash); err != nil {
		t.Fatal(err)
	}
	if err := Verify(Reference(data), two); err != nil {
		t.Fatal(err)
	}
	if two.Report.TotalCost() >= hash.Report.TotalCost() {
		t.Errorf("twolevel cost %.1f should beat hash cost %.1f on rack-local groups",
			two.Report.TotalCost(), hash.Report.TotalCost())
	}
}

func TestRoundCounts(t *testing.T) {
	tr, _ := topology.UniformStar(4, 1)
	rng := rand.New(rand.NewSource(2))
	data := genData(rng, 4, 100, 20)
	h, _ := Hash(tr, data, 1)
	if h.Report.NumRounds() != 1 {
		t.Errorf("hash rounds = %d, want 1", h.Report.NumRounds())
	}
	tw, _ := runTwoLevel(tr, data, 1)
	if tw.Report.NumRounds() != 2 {
		t.Errorf("twolevel rounds = %d, want 2", tw.Report.NumRounds())
	}
	g, _ := Gather(tr, data, topology.NoNode)
	if g.Report.NumRounds() != 1 {
		t.Errorf("gather rounds = %d, want 1", g.Report.NumRounds())
	}
}

// TestGatherTargets: a gather lands every group at its target in one
// message per holder — the named compute node, or the holder of the most
// groups for NoNode — and a target that is a router or no node of the tree
// is an error before anything runs, at 1 and 4 workers.
func TestGatherTargets(t *testing.T) {
	star, _ := topology.UniformStar(4, 1)
	data := genData(rand.New(rand.NewSource(6)), 4, 40, 30)
	for g := uint64(100); g < 140; g++ {
		data[2] = append(data[2], Pair{Group: g, Value: 1}) // the most groups
	}
	nodes := star.ComputeNodes()
	for _, tc := range []struct {
		name   string
		target topology.NodeID
		home   int // compute index that emits everything; -1: an error
	}{
		{"heaviest", topology.NoNode, 2},
		{"compute", nodes[1], 1},
		{"router", star.Root(), -1},
		{"outside", topology.NodeID(star.NumNodes()), -1},
	} {
		for _, workers := range []int{1, 4} {
			res, err := Gather(star, data, tc.target, netsim.WithWorkers(workers))
			if tc.home < 0 {
				if err == nil {
					t.Errorf("%s workers=%d: gather to %v accepted", tc.name, workers, tc.target)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if err := Verify(Reference(data), res); err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			for i, pairs := range res.PerNode {
				if (i == tc.home) != (len(pairs) > 0) {
					t.Errorf("%s workers=%d: node %d emits %d groups", tc.name, workers, i, len(pairs))
				}
			}
			if got := res.Report.Rounds[0].Messages; res.Report.NumRounds() != 1 || got != 4 {
				t.Errorf("%s workers=%d: %d messages, want one per holder", tc.name, workers, got)
			}
		}
	}
}

func TestEmptyAndSingleNode(t *testing.T) {
	tr, _ := topology.UniformStar(3, 1)
	empty := make(Placement, 3)
	res, err := Hash(tr, empty, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(Reference(empty), res); err != nil {
		t.Fatal(err)
	}
	if res.Report.TotalCost() != 0 {
		t.Error("empty input should cost nothing")
	}

	single := Placement{{{Group: 9, Value: 4}}, nil, nil}
	res, err = runTwoLevel(tr, single, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(Reference(single), res); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementMismatch(t *testing.T) {
	tr, _ := topology.UniformStar(3, 1)
	if _, err := Hash(tr, make(Placement, 2), 1); err == nil {
		t.Error("expected placement mismatch error")
	}
}

func TestCostAboveLowerBound(t *testing.T) {
	// Sanity: measured cost of any strategy is at least the spanning-group
	// bound (it is a true lower bound for this task model).
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 25; iter++ {
		tr, err := topology.Random(rng, 2+rng.Intn(5), 1+rng.Intn(3), 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		data := genData(rng, tr.NumCompute(), 50, 10+rng.Intn(40))
		lb := LowerBound(tr, data)
		res, err := runTwoLevel(tr, data, uint64(iter))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(Reference(data), res); err != nil {
			t.Fatal(err)
		}
		// Partials cost 2 elements (group, value); the LB counts 1 per
		// group, so compare at half the measured cost plus slack.
		if res.Report.TotalCost() < lb-1e-9 {
			t.Fatalf("cost %.1f below the exact lower bound %.1f", res.Report.TotalCost(), lb)
		}
	}
}

func TestQuickAllStrategiesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := topology.Random(rng, 2+rng.Intn(4), 1+rng.Intn(3), 1, 4)
		if err != nil {
			return false
		}
		data := genData(rng, tr.NumCompute(), 30, 12)
		want := Reference(data)
		for _, fn := range []func() (*Result, error){
			func() (*Result, error) { return Hash(tr, data, uint64(seed)) },
			func() (*Result, error) { return runTwoLevel(tr, data, uint64(seed)) },
			func() (*Result, error) { return Gather(tr, data, topology.NoNode) },
		} {
			res, err := fn()
			if err != nil {
				return false
			}
			got := res.Totals()
			if len(got) != len(want) {
				return false
			}
			for g, v := range want {
				if got[g] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRatioFinite(t *testing.T) {
	tr, _ := topology.UniformStar(4, 2)
	rng := rand.New(rand.NewSource(5))
	data := genData(rng, 4, 300, 60)
	res, err := runTwoLevel(tr, data, 9)
	if err != nil {
		t.Fatal(err)
	}
	lb := LowerBound(tr, data)
	r := netsim.Ratio(res.Report.TotalCost(), lb)
	if r <= 0 || r > 100 {
		t.Errorf("ratio = %v out of sane range", r)
	}
}

// degenerateData draws a small aggregation input on p nodes, bent by
// variant: 0 no records, 1 all data on one node, 2 one group carrying half
// the records, 3 every record twice, 4 as drawn.
func degenerateData(rng *rand.Rand, variant, p int) Placement {
	data := genData(rng, p, rng.Intn(60), 1+rng.Intn(40))
	switch variant {
	case 0:
		data = make(Placement, p)
	case 1:
		for i := 1; i < p; i++ {
			data[0] = append(data[0], data[i]...)
			data[i] = nil
		}
	case 2:
		for _, frag := range data {
			for j := range frag {
				if j%2 == 0 {
					frag[j].Group = 3
				}
			}
		}
	case 3:
		for i, frag := range data {
			data[i] = append(frag, frag...)
		}
	}
	return data
}

// TestDegenerateInputsAcrossWorkers runs every strategy on every topotest
// shape (the single compute node among them) with degenerate inputs: the
// result must verify and be the same at workers 1, 2, 4 and 7. The
// per-home combines fork on the pool; run with -race -count=10.
func TestDegenerateInputsAcrossWorkers(t *testing.T) {
	strategies := map[string]func(*topology.Tree, Placement, uint64, ...netsim.Option) (*Result, error){
		"hash": Hash, "twolevel": runTwoLevel, "planned": Planned, "flat": HashFlat, "tree": CombinerTree, "single": CombinerTreeSingle,
		"gather": func(tr *topology.Tree, data Placement, _ uint64, opts ...netsim.Option) (*Result, error) {
			return Gather(tr, data, topology.NoNode, opts...)
		},
	}
	for iter := 0; iter < 5*topotest.NumShapes; iter++ {
		rng := rand.New(rand.NewSource(int64(500 + iter)))
		shape, tr, err := topotest.Draw(rng, iter)
		if err != nil {
			t.Fatal(err)
		}
		data := degenerateData(rng, iter/topotest.NumShapes, tr.NumCompute())
		for name, run := range strategies {
			var want *Result
			for _, workers := range []int{1, 2, 4, 7} {
				res, err := run(tr, data, uint64(iter), netsim.WithWorkers(workers))
				if err != nil {
					t.Fatalf("iter %d %s %s workers=%d: %v", iter, shape, name, workers, err)
				}
				if err := Verify(Reference(data), res); err != nil {
					t.Fatalf("iter %d %s %s workers=%d: %v", iter, shape, name, workers, err)
				}
				if want == nil {
					want = res
				} else if !reflect.DeepEqual(res.PerNode, want.PerNode) || res.Strategy != want.Strategy ||
					res.Report.TotalCost() != want.Report.TotalCost() {
					t.Fatalf("iter %d %s %s: workers=%d result differs from workers=1", iter, shape, name, workers)
				}
			}
		}
	}
}
