package intersect

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

// TestIntersectDegenerateInputs runs every entry point (Star on stars only)
// on one-node, line, inner-compute, two-tier and star shapes with empty
// relations, all data on one node, all-equal keys and one key per node, at
// 1 and 4 workers: the output verifies, the cost is at least the Theorem 1
// bound, and the two worker counts return the same result.
func TestIntersectDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
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
	split := func(keys []uint64, p int) dataset.Placement {
		d, _ := dataset.SplitUniform(keys, p)
		return d
	}
	same := func(n int, k uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = k
		}
		return keys
	}
	inputs := []struct {
		name string
		gen  func(p int) (r, s dataset.Placement)
	}{
		{"empty R", func(p int) (dataset.Placement, dataset.Placement) {
			return make(dataset.Placement, p), split(dataset.Distinct(rng, 300), p)
		}},
		{"empty S", func(p int) (dataset.Placement, dataset.Placement) {
			return split(dataset.Distinct(rng, 300), p), make(dataset.Placement, p)
		}},
		{"all on one node", func(p int) (dataset.Placement, dataset.Placement) {
			r, s, _ := dataset.SetPair(rng, 100, 300, 40)
			pr, _ := dataset.SplitSingle(r, p, p-1)
			ps, _ := dataset.SplitSingle(s, p, p-1)
			return pr, ps
		}},
		{"all-equal keys", func(p int) (dataset.Placement, dataset.Placement) {
			return split(same(200, 7), p), split(same(300, 7), p)
		}},
		{"one key per node", func(p int) (dataset.Placement, dataset.Placement) {
			r, s := make(dataset.Placement, p), make(dataset.Placement, p)
			for i := range r {
				r[i], s[i] = []uint64{uint64(i)}, []uint64{uint64(p - 1 - i)}
			}
			return r, s
		}},
	}
	type entry struct {
		name string
		run  func(*topology.Tree, dataset.Placement, dataset.Placement, uint64, ...netsim.Option) (*Result, error)
	}
	entries := []entry{{"Tree", Tree}, {"TreeNoPartition", TreeNoPartition}, {"UniformHash", UniformHash}}
	for _, sh := range shapes {
		p := sh.tr.NumCompute()
		eps := entries
		if sh.tr.IsStar() {
			eps = append(eps[:len(eps):len(eps)], entry{"Star", Star})
		}
		for _, input := range inputs {
			r, s := input.gen(p)
			want := Reference(r, s)
			loads := make(topology.Loads, sh.tr.NumNodes())
			for i, v := range sh.tr.ComputeNodes() {
				loads[v] = int64(len(r[i]) + len(s[i]))
			}
			lb := lowerbound.Intersection(sh.tr, loads, int64(r.Total()), int64(s.Total())).Value
			for _, ep := range eps {
				at := fmt.Sprintf("%s/%s/%s", sh.name, input.name, ep.name)
				var runs [2]*Result
				for w, workers := range []int{1, 4} {
					res, err := ep.run(sh.tr, r, s, 5, netsim.WithWorkers(workers))
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if err := Verify(want, res); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if cost := res.Report.TotalCost(); cost < lb {
						t.Errorf("%s: cost %v below the lower bound %v", at, cost, lb)
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
