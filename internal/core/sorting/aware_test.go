package sorting

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

func TestCapacitySortCorrectAcrossTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	topos := map[string]*topology.Tree{}
	if st, err := topology.UniformStar(5, 2); err == nil {
		topos["star"] = st
	}
	if tt, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16); err == nil {
		topos["twotier-skew"] = tt
	}
	if ct, err := topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4); err == nil {
		topos["caterpillar"] = ct
	}
	for name, tr := range topos {
		t.Run(name, func(t *testing.T) {
			for _, place := range []struct {
				name string
				fn   func([]uint64, int) (dataset.Placement, error)
			}{
				{"uniform", uniformPlace},
				{"zipf", func(k []uint64, p int) (dataset.Placement, error) {
					return dataset.SplitZipf(rand.New(rand.NewSource(3)), k, p, 1.2)
				}},
			} {
				data := sortInput(t, rng, tr, 3000, place.fn)
				for vname, run := range map[string]func(*topology.Tree, dataset.Placement, uint64) (*Result, error){
					"aware": func(tr *topology.Tree, d dataset.Placement, s uint64) (*Result, error) {
						return CapacitySort(tr, d, s)
					},
					"flat": func(tr *topology.Tree, d dataset.Placement, s uint64) (*Result, error) {
						return CapacitySortFlat(tr, d, s)
					},
				} {
					res, err := run(tr, data, 42)
					if err != nil {
						t.Fatalf("%s/%s: %v", place.name, vname, err)
					}
					if err := Verify(tr, Reference(data), res); err != nil {
						t.Fatalf("%s/%s: %v", place.name, vname, err)
					}
				}
			}
		})
	}
}

// TestCapacitySortShrinksWeakRanges: on the skewed two-tier tree the
// capacity candidate's slow-rack nodes must end up owning far less of the
// key space than the fast-rack nodes.
func TestCapacitySortShrinksWeakRanges(t *testing.T) {
	tr, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	data := sortInput(t, rng, tr, 8000, uniformPlace)
	res, err := planSort(tr, data, 7, awareStride, nil, capacityRanges)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, Reference(data), res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "sort-aware" {
		t.Fatalf("strategy = %s, want sort-aware", res.Strategy)
	}
	var fast, slow int
	for i := 0; i < 4; i++ {
		fast += len(res.PerNode[i])
	}
	for i := 4; i < 8; i++ {
		slow += len(res.PerNode[i])
	}
	if slow*4 >= fast {
		t.Errorf("slow rack received %d keys, fast rack %d; want slow ≪ fast", slow, fast)
	}
}

// TestCapacitySortFlatMatchesOnSymmetric: uniform capacities make the
// capacity candidate coincide with its flat counterpart.
func TestCapacitySortFlatMatchesOnSymmetric(t *testing.T) {
	tr, _ := topology.UniformStar(6, 2)
	rng := rand.New(rand.NewSource(23))
	data := sortInput(t, rng, tr, 3000, uniformPlace)
	aware, err := planSort(tr, data, 9, awareStride, nil, capacityRanges)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := CapacitySortFlat(tr, data, 9)
	if err != nil {
		t.Fatal(err)
	}
	if aware.Report.TotalCost() != flat.Report.TotalCost() {
		t.Errorf("symmetric star: aware cost %.3f != flat cost %.3f",
			aware.Report.TotalCost(), flat.Report.TotalCost())
	}
}

// TestCapacitySortBeatsFlatOnSkewedUplink: with the input concentrated on
// the fast rack, uniform key ranges flood the weak uplink while capacity
// ranges keep the data on the strong side.
func TestCapacitySortBeatsFlatOnSkewedUplink(t *testing.T) {
	tr, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	data := sortInput(t, rng, tr, 8000, func(k []uint64, p int) (dataset.Placement, error) {
		return dataset.SplitOneHeavy(k, p, 0, 0.8)
	})
	aware, err := CapacitySort(tr, data, 5)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := CapacitySortFlat(tr, data, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"aware": aware, "flat": flat} {
		if err := Verify(tr, Reference(data), res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if aware.Report.TotalCost() >= flat.Report.TotalCost() {
		t.Errorf("aware cost %.1f should beat flat cost %.1f",
			aware.Report.TotalCost(), flat.Report.TotalCost())
	}
}

// fixtureTrees is the golden harness's topology zoo (fixtureTopos in the
// module root's harness_test.go), built with the constructors its clusters
// wrap.
func fixtureTrees() []func() (string, *topology.Tree, error) {
	tree := func(name string, build func() (*topology.Tree, error)) func() (string, *topology.Tree, error) {
		return func() (string, *topology.Tree, error) {
			t, err := build()
			return name, t, err
		}
	}
	graph := func(name string, build func() (*topology.Graph, error)) func() (string, *topology.Tree, error) {
		return tree(name, func() (*topology.Tree, error) {
			g, err := build()
			if err != nil {
				return nil, err
			}
			return topology.FromGraph(g)
		})
	}
	return []func() (string, *topology.Tree, error){
		tree("star-uniform", func() (*topology.Tree, error) { return topology.Star([]float64{2, 2, 2, 2, 2, 2, 2, 2}) }),
		tree("twotier-skew", func() (*topology.Tree, error) { return topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16) }),
		tree("fattree", func() (*topology.Tree, error) { return topology.FatTree(2, 3, 2, 3) }),
		tree("caterpillar", func() (*topology.Tree, error) { return topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4) }),
		tree("fattree-taper", func() (*topology.Tree, error) { return topology.FatTree(3, 2, 16, 0.25) }),
		tree("caterpillar-grade", func() (*topology.Tree, error) { return topology.Caterpillar([]float64{8, 3, 0.5, 3, 8}, 8) }),
		graph("mesh", func() (*topology.Graph, error) { return topology.Mesh(3, 4, 2.5) }),
		graph("ring-of-racks", func() (*topology.Graph, error) { return topology.RingOfRacks(4, 2, 3, 8) }),
		graph("clos", func() (*topology.Graph, error) { return topology.Clos(2, 3, 2, 4, 10) }),
	}
}

// TestCapacitySortEmptyAndTiny: the planned sort on a three-node star
// handles an empty input and three keys spread raggedly over two nodes.
func TestCapacitySortEmptyAndTiny(t *testing.T) {
	tr, _ := topology.UniformStar(3, 1)
	for _, data := range []dataset.Placement{{nil, nil, nil}, {{5}, nil, {9, 2}}} {
		res, err := CapacitySort(tr, data, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(tr, Reference(data), res); err != nil {
			t.Fatal(err)
		}
	}
}

// plannedSort is a planned entry point with its candidates, in order, each
// of which runs alone as a one-candidate plan of the same stride.
type plannedSort struct {
	name   string
	run    func(*topology.Tree, dataset.Placement, uint64, ...netsim.Option) (*Result, error)
	stride int64
	cands  []layout
}

var plannedSorts = []plannedSort{
	{"sort", WTS, wtsStride, []layout{weightedRanges(ProportionalLight), gatherCheapest}},
	{"sort-aware", CapacitySort, awareStride, []layout{capacityRanges, uniformRanges, gatherCheapest, weightedRanges(ProportionalLight)}},
}

// checkCheapest runs ps and each of its candidates alone on data and fails
// unless the planned run costs exactly the least candidate (fewer rounds,
// then candidate order, among equals), returns that candidate's output and
// rounds under its name, verifies and costs at least the Theorem 6 bound,
// and the gather run alone costs what place.Gather prices it at.
func checkCheapest(t *testing.T, at string, ps plannedSort, tr *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) *Result {
	t.Helper()
	planned, err := ps.run(tr, data, seed, opts...)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if err := Verify(tr, Reference(data), planned); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	loads := make(topology.Loads, tr.NumNodes())
	for i, v := range tr.ComputeNodes() {
		loads[v] = int64(len(data[i]))
	}
	var best *Result
	var costs []float64
	for _, lay := range ps.cands {
		alone, err := planSort(tr, data, seed, ps.stride, opts, lay)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		c := alone.Report.TotalCost()
		if want := place.Gather(tr, loads).Cost; alone.Strategy == "gather" && c != want {
			t.Fatalf("%s: the gather costs %v, place.Gather prices it at %v", at, c, want)
		}
		costs = append(costs, c)
		if best == nil || c < best.Report.TotalCost() || c == best.Report.TotalCost() && alone.Report.NumRounds() < best.Report.NumRounds() {
			best = alone
		}
	}
	if got, want := planned.Report.TotalCost(), best.Report.TotalCost(); got != want || planned.Strategy != best.Strategy {
		t.Fatalf("%s: planned %s at %v, want %s at %v (candidates alone: %v)", at, planned.Strategy, got, best.Strategy, want, costs)
	}
	if !reflect.DeepEqual(planned.PerNode, best.PerNode) || !reflect.DeepEqual(planned.Report.Rounds, best.Report.Rounds) {
		t.Fatalf("%s: planned run differs from %s run alone", at, best.Strategy)
	}
	if lb := lowerbound.Sorting(tr, loads).Value; planned.Report.TotalCost() < lb {
		t.Fatalf("%s: cost %v below the Theorem 6 bound %v", at, planned.Report.TotalCost(), lb)
	}
	return planned
}

// TestCapacitySortRunsCheapestCandidate: on every golden fixture tree and
// three draws of every topotest shape, under four placements of distinct and
// of heavily repeated keys, and on one named instance, the planned sort
// costs exactly the least of its four candidates run alone on the same input
// — the capacity candidate, CapacitySortFlat, the gather at the cheapest
// node and wTS — and returns that candidate's output under its name (fewer
// rounds, then candidate order, among equals), at 1 and 4 workers. Every
// candidate wins somewhere; CapacitySortFlat wins the named instance, a ring
// of three three-host racks on unit links under zipf.
func TestCapacitySortRunsCheapestCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	shapes := fixtureTrees()
	for i := 0; i < 3*topotest.NumShapes; i++ {
		shapes = append(shapes, func() (string, *topology.Tree, error) { return topotest.Draw(rng, i) })
	}
	wins := map[string]int{}
	for _, shape := range shapes {
		name, tr, err := shape()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pl := range conformancePlaces {
			for _, repeats := range []bool{false, true} {
				keys := dataset.Distinct(rng, 2400)
				if repeats {
					for i := range keys {
						keys[i] %= 50
					}
				}
				data, err := pl.fn(keys, tr.NumCompute())
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					at := fmt.Sprintf("%s/%s/repeats=%v/workers=%d", name, pl.name, repeats, workers)
					planned := checkCheapest(t, at, plannedSorts[1], tr, data, 11, netsim.WithWorkers(workers))
					wins[planned.Strategy]++
				}
			}
		}
	}
	ring, err := topology.RingOfRacks(3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := topology.FromGraph(ring)
	if err != nil {
		t.Fatal(err)
	}
	data, err := conformancePlaces[1].fn(dataset.Distinct(rand.New(rand.NewSource(1)), 2400), tr.NumCompute())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		at := fmt.Sprintf("ring-of-racks(3,3,1,1)/zipf/workers=%d", workers)
		planned := checkCheapest(t, at, plannedSorts[1], tr, data, 11, netsim.WithWorkers(workers))
		if planned.Strategy != "sort-flat" {
			t.Errorf("%s: planned %s, want sort-flat", at, planned.Strategy)
		}
		wins[planned.Strategy]++
	}
	// Every candidate wins somewhere.
	for _, s := range []string{"sort-aware", "sort-flat", "gather", "wts"} {
		if wins[s] == 0 {
			t.Errorf("no instance chose %s: %v", s, wins)
		}
	}
	t.Logf("winners: %v", wins)
}

type namedPlace struct {
	name string
	fn   func([]uint64, int) (dataset.Placement, error)
}

// conformancePlaces are the placements the planned-sort tests draw inputs
// with.
var conformancePlaces = []namedPlace{
	{"uniform", uniformPlace},
	{"zipf", func(k []uint64, p int) (dataset.Placement, error) {
		return dataset.SplitZipf(rand.New(rand.NewSource(3)), k, p, 1.2)
	}},
	{"oneheavy", func(k []uint64, p int) (dataset.Placement, error) { return dataset.SplitOneHeavy(k, p, 0, 0.8) }},
	{"single", func(k []uint64, p int) (dataset.Placement, error) { return dataset.SplitSingle(k, p, p-1) }},
}

// TestPlannedSortsConformance runs both planned sorts — WTS ("sort") and
// CapacitySort ("sort-aware") — on every topotest shape under the four
// placements, no data, and all data on the first node, at 1 and 4 workers.
// Each costs exactly the least of its candidates run alone, at least the
// Theorem 6 bound, and returns the same result at both worker counts.
func TestPlannedSortsConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	places := append(slices.Clip(conformancePlaces),
		namedPlace{"no data", func(_ []uint64, p int) (dataset.Placement, error) { return make(dataset.Placement, p), nil }},
		namedPlace{"all on first", func(k []uint64, p int) (dataset.Placement, error) { return dataset.SplitSingle(k, p, 0) }})
	for i := 0; i < topotest.NumShapes; i++ {
		name, tr, err := topotest.Draw(rng, i)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pl := range places {
			data, err := pl.fn(dataset.Distinct(rng, 1500), tr.NumCompute())
			if err != nil {
				t.Fatal(err)
			}
			for _, ps := range plannedSorts {
				var runs [2]*Result
				for w, workers := range []int{1, 4} {
					at := fmt.Sprintf("%s/%s/%s/workers=%d", name, pl.name, ps.name, workers)
					runs[w] = checkCheapest(t, at, ps, tr, data, 5, netsim.WithWorkers(workers))
				}
				if !reflect.DeepEqual(runs[0], runs[1]) {
					t.Errorf("%s/%s/%s: results differ between 1 and 4 workers", name, pl.name, ps.name)
				}
			}
		}
	}
}

// TestOneCandidateRunsUnpriced: the one-candidate sorts — TeraSort,
// CapacitySortFlat and WTSUnpriced — run without pricing a round, while
// the planned sorts price every round of every candidate: WTS wTS's four
// and the gather's one, CapacitySort 3 + 3 + 1 + 4 for the capacity and
// uniform splitter sorts, the gather and wTS. Each counts only the rounds of
// the candidate it runs as executed.
func TestOneCandidateRunsUnpriced(t *testing.T) {
	tr, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	data := sortInput(t, rand.New(rand.NewSource(27)), tr, 3000, uniformPlace)
	for _, tc := range []struct {
		name   string
		run    func(opts ...netsim.Option) (*Result, error)
		priced int64
	}{
		{"TeraSort", func(opts ...netsim.Option) (*Result, error) { return TeraSort(tr, data, 1, opts...) }, 0},
		{"CapacitySortFlat", func(opts ...netsim.Option) (*Result, error) { return CapacitySortFlat(tr, data, 1, opts...) }, 0},
		{"WTSUnpriced", func(opts ...netsim.Option) (*Result, error) {
			return WTSUnpriced(tr, data, 1, ProportionalLight, opts...)
		}, 0},
		{"WTS", func(opts ...netsim.Option) (*Result, error) { return WTS(tr, data, 1, opts...) }, 4 + 1},
		{"CapacitySort", func(opts ...netsim.Option) (*Result, error) { return CapacitySort(tr, data, 1, opts...) }, 3 + 3 + 1 + 4},
	} {
		reg := obs.NewRegistry()
		res, err := tc.run(netsim.WithMetrics(reg))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := Verify(tr, Reference(data), res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := reg.Counter("netsim.priced_rounds").Value(); got != tc.priced {
			t.Errorf("%s: netsim.priced_rounds = %d, want %d", tc.name, got, tc.priced)
		}
		if got, want := reg.Counter("netsim.rounds").Value(), int64(len(res.Report.Rounds)); got != want {
			t.Errorf("%s (%s): netsim.rounds = %d, the report holds %d", tc.name, res.Strategy, got, want)
		}
	}
}
