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
	"topompc/internal/topology/topotest"
)

// TestCartesianDegenerateInputs runs every entry point on every topotest
// shape over the four placements (uniform, zipf, oneheavy, single) and the
// degenerate inputs: an empty R, S or both, and all of both relations on
// one node. Each run must pass Verify (its rectangles cover the grid and
// every node holds exactly the rows and columns its rectangle spans), cost
// no less than the bound the pipeline reports for these sizes, and give the
// same result, report included, at 1 and 4 workers. Tree and UniformGrid
// take equal sizes only and Unequal stars only; outside that they must
// refuse with an error at both worker counts.
func TestCartesianDegenerateInputs(t *testing.T) {
	const n = 96
	inputs := []struct {
		name string
		gen  func(rng *rand.Rand, p int) (r, s dataset.Placement)
	}{
		{"empty R and S", func(_ *rand.Rand, p int) (dataset.Placement, dataset.Placement) {
			return make(dataset.Placement, p), make(dataset.Placement, p)
		}},
		{"empty R", func(rng *rand.Rand, p int) (dataset.Placement, dataset.Placement) {
			return make(dataset.Placement, p), split(t, rng, "uniform", dataset.Distinct(rng, n), p)
		}},
		{"empty S", func(rng *rand.Rand, p int) (dataset.Placement, dataset.Placement) {
			return split(t, rng, "zipf", dataset.Distinct(rng, n), p), make(dataset.Placement, p)
		}},
		{"all on one node", func(rng *rand.Rand, p int) (dataset.Placement, dataset.Placement) {
			r, _ := dataset.SplitSingle(dataset.Distinct(rng, n), p, p-1)
			s, _ := dataset.SplitSingle(dataset.Distinct(rng, n), p, p-1)
			return r, s
		}},
		{"all on one node, unequal", func(rng *rand.Rand, p int) (dataset.Placement, dataset.Placement) {
			r, _ := dataset.SplitSingle(dataset.Distinct(rng, n/3), p, 0)
			s, _ := dataset.SplitSingle(dataset.Distinct(rng, n), p, 0)
			return r, s
		}},
	}
	for _, how := range placements {
		inputs = append(inputs, struct {
			name string
			gen  func(rng *rand.Rand, p int) (r, s dataset.Placement)
		}{how, func(rng *rand.Rand, p int) (dataset.Placement, dataset.Placement) {
			return split(t, rng, how, dataset.Distinct(rng, n), p), split(t, rng, how, dataset.Distinct(rng, n), p)
		}})
	}
	entries := []struct {
		name        string
		run         func(*topology.Tree, dataset.Placement, dataset.Placement, ...netsim.Option) (*Result, error)
		equal, star bool // takes equal sizes only; takes stars only
	}{
		{"Tree", Tree, true, false},
		{"UniformGrid", UniformGrid, true, false},
		{"Unequal", Unequal, false, true},
	}
	ran := make(map[string]int)
	for shape := 0; shape < topotest.NumShapes; shape++ {
		rng := rand.New(rand.NewSource(int64(700 + shape)))
		shapeName, tr, err := topotest.Draw(rng, shape)
		if err != nil {
			t.Fatal(err)
		}
		p := tr.NumCompute()
		for _, in := range inputs {
			r, s := in.gen(rng, p)
			sizeR, sizeS := int64(r.Total()), int64(s.Total())
			loads := make(topology.Loads, tr.NumNodes())
			for i, v := range tr.ComputeNodes() {
				loads[v] = int64(len(r[i]) + len(s[i]))
			}
			lb := lowerbound.Cartesian(tr, loads).Value
			if sizeR != sizeS {
				lb = lowerbound.UnequalCartesianCut(tr, loads, min(sizeR, sizeS)).Value
			}
			for _, ep := range entries {
				at := fmt.Sprintf("%s/%s/%s", shapeName, in.name, ep.name)
				refuse := (ep.equal && sizeR != sizeS) || (ep.star && !tr.IsStar())
				var runs [2]*Result
				for w, workers := range []int{1, 4} {
					res, err := ep.run(tr, r, s, netsim.WithWorkers(workers))
					if refuse {
						if err == nil {
							t.Fatalf("%s workers=%d: ran on |R| = %d, |S| = %d (star: %v), want an error",
								at, workers, sizeR, sizeS, tr.IsStar())
						}
						continue
					}
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
				if !refuse {
					ran[ep.name]++
				}
			}
		}
	}
	for _, ep := range entries {
		if ran[ep.name] == 0 {
			t.Errorf("%s ran on no shape and input", ep.name)
		}
	}
	t.Logf("runs per entry point: %v", ran)
}
