package cartesian

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// TestUnequalConformance runs Unequal on 600 random stars — 1 to 12 leaves,
// bandwidths in [0.5, 16], |R| ≠ |S| in 1..400, four placements — at 1 and
// 4 workers. Each run passes Verify, costs at least the unequal cut bound,
// gives the same result at both worker counts, and costs exactly the least
// of its layouts run alone through the driver, with the rectangles of the
// earliest such layout. Gather, broadcast and the packing each win at least
// once.
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

		loads := make(topology.Loads, tr.NumNodes())
		for i, v := range tr.ComputeNodes() {
			loads[v] = int64(len(r[i]) + len(s[i]))
		}
		lb := lowerbound.UnequalCartesianCut(tr, loads, int64(min(sizeR, sizeS))).Value
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
