package cartesian

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
)

// TestUnequalConformance runs Unequal on 600 random stars — 1 to 12 leaves,
// bandwidths in [0.5, 16], |R| ≠ |S| in 1..400, four placements — at 1 and
// 4 workers. Each run passes Verify, costs at least the unequal-size bound
// (the cut, or Theorem 9's coverage term where that is larger), gives the
// same result at both worker counts, and costs exactly the least of its
// layouts run alone through the driver, with the rectangles of the earliest
// such layout. Gather, broadcast and the packing each win at least once.
func TestUnequalConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	picked := make(map[string]int)
	for iter := 0; iter < 600; iter++ {
		bws := make([]float64, 1+rng.Intn(12))
		for i := range bws {
			bws[i] = 0.5 + 15.5*rng.Float64()
		}
		tr, err := topology.Star(bws)
		if err != nil {
			t.Fatal(err)
		}
		p := tr.NumCompute()
		sizeR, sizeS := 1+rng.Intn(400), 1+rng.Intn(400)
		for sizeS == sizeR {
			sizeS = 1 + rng.Intn(400)
		}
		how := placements[iter%len(placements)]
		r, s := split(t, rng, how, dataset.Distinct(rng, sizeR), p), split(t, rng, how, dataset.Distinct(rng, sizeS), p)
		at := fmt.Sprintf("iter %d: %d leaves, |R| = %d, |S| = %d, %s", iter, p, sizeR, sizeS, how)

		loadsR, loadsS := make(topology.Loads, tr.NumNodes()), make(topology.Loads, tr.NumNodes())
		for i, v := range tr.ComputeNodes() {
			loadsR[v], loadsS[v] = int64(len(r[i])), int64(len(s[i]))
		}
		lb := lowerbound.UnequalCartesian(tr, loadsR, loadsS)
		var runs [2]*Result
		for w, workers := range []int{1, 4} {
			res, err := Unequal(tr, r, s, netsim.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", at, workers, err)
			}
			if err := Verify(r, s, res); err != nil {
				t.Fatalf("%s workers=%d: %v", at, workers, err)
			}
			if cost := res.Report.TotalCost(); cost < lb {
				t.Errorf("%s workers=%d: cost %v below the lower bound %v", at, workers, cost, lb)
			}
			runs[w] = res
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%s: results differ between 1 and 4 workers", at)
		}

		in, err := newInstance(tr, r, s)
		if err != nil {
			t.Fatal(err)
		}
		layouts, err := unequalLayouts(in)
		if err != nil {
			t.Fatal(err)
		}
		var least *Result
		for _, lay := range layouts {
			alone, err := distribute(in, lay)
			if err != nil {
				t.Fatalf("%s: %s alone: %v", at, lay.strategy, err)
			}
			if least == nil || alone.Report.TotalCost() < least.Report.TotalCost() {
				least = alone
			}
		}
		got := runs[0]
		if got.Report.TotalCost() != least.Report.TotalCost() || got.Strategy != least.Strategy ||
			!reflect.DeepEqual(got.Rects, least.Rects) {
			t.Errorf("%s: ran %s at cost %v, the least layout run alone is %s at %v",
				at, got.Strategy, got.Report.TotalCost(), least.Strategy, least.Report.TotalCost())
		}
		picked[got.Strategy]++
	}
	for _, strategy := range []string{"gather", "broadcast", "unequal"} {
		if picked[strategy] == 0 {
			t.Errorf("no run picked %s", strategy)
		}
	}
	t.Logf("picks: %v", picked)
}

// TestOneLayoutRunsUnpriced: Tree and UniformGrid have one layout each and
// run it without pricing a round, while Unequal prices one round per layout
// — a gather at each of the p leaves, the broadcast and the packing — and
// runs one.
func TestOneLayoutRunsUnpriced(t *testing.T) {
	tr, err := topology.Star([]float64{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(34))
	p := tr.NumCompute()
	r, s := split(t, rng, "zipf", dataset.Distinct(rng, 64), p), split(t, rng, "zipf", dataset.Distinct(rng, 64), p)
	small := split(t, rng, "uniform", dataset.Distinct(rng, 16), p)
	for _, tc := range []struct {
		name   string
		run    func(opts ...netsim.Option) (*Result, error)
		priced int64
	}{
		{"Tree", func(opts ...netsim.Option) (*Result, error) { return Tree(tr, r, s, opts...) }, 0},
		{"UniformGrid", func(opts ...netsim.Option) (*Result, error) { return UniformGrid(tr, r, s, opts...) }, 0},
		{"Unequal", func(opts ...netsim.Option) (*Result, error) { return Unequal(tr, r, small, opts...) }, int64(p + 2)},
	} {
		reg := obs.NewRegistry()
		res, err := tc.run(netsim.WithMetrics(reg))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := reg.Counter("netsim.priced_rounds").Value(); got != tc.priced {
			t.Errorf("%s: netsim.priced_rounds = %d, want %d", tc.name, got, tc.priced)
		}
		if got := reg.Counter("netsim.rounds").Value(); got != 1 || len(res.Report.Rounds) != 1 {
			t.Errorf("%s: %d rounds counted, %d reported, want 1", tc.name, got, len(res.Report.Rounds))
		}
	}
}
