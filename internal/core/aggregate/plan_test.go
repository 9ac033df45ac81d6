package aggregate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// goldenTrees builds the golden harness's fixture topologies from the
// constructors the root package's fixture clusters use.
func goldenTrees(t *testing.T) map[string]*topology.Tree {
	t.Helper()
	trees := make(map[string]*topology.Tree)
	add := func(name string, tr *topology.Tree, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		trees[name] = tr
	}
	graph := func(g *topology.Graph, err error) (*topology.Tree, error) {
		if err != nil {
			return nil, err
		}
		return topology.FromGraph(g)
	}
	tr, err := topology.Star([]float64{2, 2, 2, 2, 2, 2, 2, 2})
	add("star-uniform", tr, err)
	tr, err = topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	add("twotier-skew", tr, err)
	tr, err = topology.FatTree(2, 3, 2, 3)
	add("fattree", tr, err)
	tr, err = topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4)
	add("caterpillar", tr, err)
	tr, err = topology.FatTree(3, 2, 16, 0.25)
	add("fattree-taper", tr, err)
	tr, err = topology.Caterpillar([]float64{8, 3, 0.5, 3, 8}, 8)
	add("caterpillar-grade", tr, err)
	tr, err = graph(topology.Mesh(3, 4, 2.5))
	add("mesh", tr, err)
	tr, err = graph(topology.RingOfRacks(4, 2, 3, 8))
	add("ring-of-racks", tr, err)
	tr, err = graph(topology.Clos(2, 3, 2, 4, 10))
	add("clos", tr, err)
	return trees
}

// placedCounts draws n records of value 1 over n/8 groups and deals them
// over p nodes by placement, as the golden harness deals its inputs.
func placedCounts(t *testing.T, rng *rand.Rand, n, p int, placement string) Placement {
	t.Helper()
	pool := dataset.Distinct(rng, n/8)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = pool[rng.Intn(len(pool))]
	}
	var frags dataset.Placement
	var err error
	switch placement {
	case "uniform":
		frags, err = dataset.SplitUniform(keys, p)
	case "zipf":
		frags, err = dataset.SplitZipf(rng, keys, p, 1.2)
	case "oneheavy":
		frags, err = dataset.SplitOneHeavy(keys, p, 0, 0.8)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := make(Placement, p)
	for i, frag := range frags {
		for _, k := range frag {
			out[i] = append(out[i], Pair{Group: k, Value: 1})
		}
	}
	return out
}

// plannedCandidates reports Planned's candidates on the instance of data.
func plannedCandidates(t *testing.T, tr *topology.Tree, data Placement, seed uint64) (*instance, []candidate) {
	t.Helper()
	in, err := newInstance(tr, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := planned(in, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in, cands
}

// checkPlanned holds Planned on one input to the oracle: its output
// verifies, its result is the same at workers 1 and 4, and its cost is the
// least of its candidates' run alone, each on an engine of its own.
func checkPlanned(t *testing.T, name string, tr *topology.Tree, data Placement, seed uint64) {
	t.Helper()
	var res *Result
	for _, workers := range []int{1, 4} {
		got, err := Planned(tr, data, seed, netsim.WithWorkers(workers))
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if err := Verify(Reference(data), got); err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if res == nil {
			res = got
		} else if !reflect.DeepEqual(got.PerNode, res.PerNode) || got.Strategy != res.Strategy ||
			!reflect.DeepEqual(got.Report, res.Report) {
			t.Fatalf("%s: workers=%d result differs from workers=1", name, workers)
		}
	}
	_, cands := plannedCandidates(t, tr, data, seed)
	least := -1.0
	for k := range cands {
		alone, err := run(tr, data, seed, nil, func(in *instance) ([]candidate, error) {
			cs, err := planned(in, seed)
			return cs[k : k+1], err
		})
		if err != nil {
			t.Fatalf("%s %s alone: %v", name, cands[k].strategy, err)
		}
		if cost := alone.Report.TotalCost(); least < 0 || cost < least {
			least = cost
		}
	}
	if got := res.Report.TotalCost(); got != least {
		t.Errorf("%s: planned %s costs %v, the cheapest candidate alone %v", name, res.Strategy, got, least)
	}
}

// TestPlannedIsCheapestCandidate is the planner's oracle on every topotest
// shape with degenerate inputs and on the golden fixtures under uniform,
// zipf and one-heavy placements.
func TestPlannedIsCheapestCandidate(t *testing.T) {
	for iter := 0; iter < 5*topotest.NumShapes; iter++ {
		rng := rand.New(rand.NewSource(int64(900 + iter)))
		shape, tr, err := topotest.Draw(rng, iter)
		if err != nil {
			t.Fatal(err)
		}
		data := degenerateData(rng, iter/topotest.NumShapes, tr.NumCompute())
		checkPlanned(t, fmt.Sprintf("iter %d %s", iter, shape), tr, data, uint64(iter))
	}
	for name, tr := range goldenTrees(t) {
		for j, placement := range []string{"uniform", "zipf", "oneheavy"} {
			rng := rand.New(rand.NewSource(int64(40 + j)))
			data := placedCounts(t, rng, 2400, tr.NumCompute(), placement)
			checkPlanned(t, name+"/"+placement, tr, data, 7)
		}
	}
}

// TestPricedHopMatchesRun: for every hop of every candidate, the partials
// route computes in-process when the hop is priced are the ones merged from
// the inboxes when the hop runs.
func TestPricedHopMatchesRun(t *testing.T) {
	trees := goldenTrees(t)
	for iter := 0; iter < 2*topotest.NumShapes; iter++ {
		rng := rand.New(rand.NewSource(int64(300 + iter)))
		shape, tr, err := topotest.Draw(rng, iter)
		if err != nil {
			t.Fatal(err)
		}
		trees[shape+fmt.Sprint(iter)] = tr
	}
	for name, tr := range trees {
		data := placedCounts(t, rand.New(rand.NewSource(3)), 1200, tr.NumCompute(), "zipf")
		in, cands := plannedCandidates(t, tr, data, 5)
		for _, c := range cands {
			held := in.local
			for r := range c.hops {
				h := &c.hops[r]
				routed := in.route(h, held)
				x := in.e.Exchange()
				h.plan(in, x, held)
				x.Execute()
				held = in.merged(h, held, in.inbox)
				if !reflect.DeepEqual(routed, held) {
					t.Errorf("%s %s hop %d: routed partials differ from the merged inboxes", name, c.strategy, r)
				}
			}
		}
	}
}

// TestRunReturnsPlanErrors: an error planning the candidates, or building a
// candidate's scatter when it is priced, is the run's error.
func TestRunReturnsPlanErrors(t *testing.T) {
	tr, _ := topology.UniformStar(3, 1)
	data := genData(rand.New(rand.NewSource(8)), 3, 20, 5)
	want := errors.New("no plan")
	if _, err := run(tr, data, 1, nil, func(*instance) ([]candidate, error) { return nil, want }); err != want {
		t.Errorf("plan error: got %v, want %v", err, want)
	}
	bad := candidate{strategy: "bad", homes: fixed([]float64{1, math.NaN(), 1})}
	if _, err := run(tr, data, 1, nil, func(*instance) ([]candidate, error) { return []candidate{hash, bad}, nil }); err == nil {
		t.Error("a scatter over NaN home weights ran")
	}
}
