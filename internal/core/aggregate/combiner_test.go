package aggregate

import (
	"fmt"
	"math/rand"
	"testing"

	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
)

func TestCombinerTreeCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	topos := map[string]*topology.Tree{"figure1b": topology.Figure1b()}
	if tt, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16); err == nil {
		topos["twotier-skew"] = tt
	}
	if st, err := topology.UniformStar(5, 2); err == nil {
		topos["star"] = st
	}
	if ct, err := topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4); err == nil {
		topos["caterpillar"] = ct
	}
	for name, tr := range topos {
		t.Run(name, func(t *testing.T) {
			data := genData(rng, tr.NumCompute(), 200, 50)
			for _, run := range []struct {
				name string
				fn   func() (*Result, error)
			}{
				{"combiner-tree", func() (*Result, error) { return CombinerTree(tr, data, 7) }},
				{"flat-hash", func() (*Result, error) { return HashFlat(tr, data, 7) }},
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

// TestCombinerTreeStrategySelection: the combining plan engages exactly
// when the topology has a weak cut with a multi-member block.
func TestCombinerTreeStrategySelection(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	star, _ := topology.UniformStar(4, 1)
	data := genData(rng, 4, 50, 10)
	res, err := CombinerTree(star, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "capacity-hash" {
		t.Errorf("uniform star strategy = %s, want capacity-hash (no weak cut)", res.Strategy)
	}
	if res.Report.NumRounds() != 1 {
		t.Errorf("capacity-hash rounds = %d, want 1", res.Report.NumRounds())
	}
	skew, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	data = genData(rng, skew.NumCompute(), 50, 10)
	res, err = CombinerTree(skew, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "combiner-tree×1" {
		t.Errorf("skewed two-tier strategy = %s, want combiner-tree×1", res.Strategy)
	}
	if res.Report.NumRounds() != 2 {
		t.Errorf("combiner-tree rounds = %d, want 2", res.Report.NumRounds())
	}
	single, err := CombinerTreeSingle(skew, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if single.Strategy != "combiner-tree" {
		t.Errorf("single-level strategy = %s, want combiner-tree", single.Strategy)
	}
	// The skewed two-tier has a depth-1 hierarchy, so the multi-level tree
	// must reproduce the single-level protocol cost-exactly.
	if got, want := res.Report.TotalCost(), single.Report.TotalCost(); got != want {
		t.Errorf("depth-1 multi-level cost %.3f != single-level cost %.3f", got, want)
	}
}

// TestCombinerTreeMultiLevelBeatsSingle: on deep bandwidth gradients —
// a tapered fat-tree (thin core) and a graded caterpillar — the recursive
// combiner tree must merge at every tier and strictly beat the
// single-level tree, which only merges at the hierarchy's deepest level.
// Both must still verify and dominate the exact bound.
func TestCombinerTreeMultiLevelBeatsSingle(t *testing.T) {
	taper, err := topology.FatTree(3, 2, 16, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	grade, err := topology.Caterpillar([]float64{8, 3, 0.5, 3, 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*topology.Tree{"fattree-taper": taper, "caterpillar-grade": grade} {
		t.Run(name, func(t *testing.T) {
			p := tr.NumCompute()
			data := make(Placement, p)
			for i := 0; i < p; i++ {
				for g := 0; g < 150; g++ {
					data[i] = append(data[i], Pair{Group: uint64(g), Value: 1})
				}
			}
			multi, err := CombinerTree(tr, data, 5)
			if err != nil {
				t.Fatal(err)
			}
			single, err := CombinerTreeSingle(tr, data, 5)
			if err != nil {
				t.Fatal(err)
			}
			for vname, res := range map[string]*Result{"multi": multi, "single": single} {
				if err := Verify(Reference(data), res); err != nil {
					t.Fatalf("%s: %v", vname, err)
				}
			}
			mc, sc := multi.Report.TotalCost(), single.Report.TotalCost()
			if mc >= sc {
				t.Errorf("multi-level cost %.1f should beat single-level cost %.1f", mc, sc)
			} else {
				t.Logf("multi %.1f vs single %.1f (win %.2fx)", mc, sc, sc/mc)
			}
			if lb := LowerBound(tr, data); mc < lb*(1-1e-9) {
				t.Errorf("multi-level cost %.2f below lower bound %.2f", mc, lb)
			}
		})
	}
}

// TestCombinerTreeBeatsFlatOnWeakCut: with groups shared across the whole
// cluster and a weak uplink, merging once per block must beat per-node
// partial delivery.
func TestCombinerTreeBeatsFlatOnWeakCut(t *testing.T) {
	tr, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.NumCompute()
	data := make(Placement, p)
	for i := 0; i < p; i++ {
		for g := 0; g < 200; g++ {
			// Every node contributes to every group: maximal duplication.
			data[i] = append(data[i], Pair{Group: uint64(g), Value: 1})
		}
	}
	aware, err := CombinerTree(tr, data, 5)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := HashFlat(tr, data, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"aware": aware, "flat": flat} {
		if err := Verify(Reference(data), res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if aware.Report.TotalCost() >= flat.Report.TotalCost() {
		t.Errorf("combiner-tree cost %.1f should beat flat cost %.1f",
			aware.Report.TotalCost(), flat.Report.TotalCost())
	}
	// Cost still dominates the exact spanning-groups bound.
	if lb := LowerBound(tr, data); aware.Report.TotalCost() < lb*(1-1e-9) {
		t.Errorf("aware cost %.2f below lower bound %.2f", aware.Report.TotalCost(), lb)
	}
}

// TestCombinerTreeFlatParityOnSymmetric: with uniform capacities and no
// weak cut the two protocols coincide (same chooser seed).
func TestCombinerTreeFlatParityOnSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	star, _ := topology.UniformStar(6, 3)
	data := genData(rng, 6, 120, 30)
	aware, err := CombinerTree(star, data, 9)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := HashFlat(star, data, 9)
	if err != nil {
		t.Fatal(err)
	}
	if aware.Report.TotalCost() != flat.Report.TotalCost() {
		t.Errorf("symmetric star: aware cost %.3f != flat cost %.3f",
			aware.Report.TotalCost(), flat.Report.TotalCost())
	}
}

// TestCombinerTreeRecorderSurface pins what the combiner trees tell the
// flight recorder on the graded caterpillar (a depth-2 hierarchy whose
// up-sweep merges at both levels): one "combine level L" span per hop that
// runs, deepest level first, carrying its level (the netsim.round event of
// the same round carries its elements and cost); the aggregate.* counters
// counting those rounds and the elements they ship; and the hierarchy's
// place.combine decisions, one per block per level, from the multi-level
// tree only. The one-round hash candidates report none of it, and neither
// does a tree the planner only priced: planned on groups every node shares,
// it runs the multi-level tree and records what that tree records, one
// netsim.plan event besides; on groups no two nodes share it runs
// flat-hash, and the trees it priced record nothing.
func TestCombinerTreeRecorderSurface(t *testing.T) {
	tr, err := topology.Caterpillar([]float64{8, 3, 0.5, 3, 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	shared, disjoint := make(Placement, tr.NumCompute()), make(Placement, tr.NumCompute())
	for i := range shared {
		for g := 0; g < 150; g++ {
			shared[i] = append(shared[i], Pair{Group: uint64(g), Value: 1})
			disjoint[i] = append(disjoint[i], Pair{Group: uint64(1000*i + g), Value: 1})
		}
	}
	for _, tc := range []struct {
		name     string
		run      func(*topology.Tree, Placement, uint64, ...netsim.Option) (*Result, error)
		data     Placement
		strategy string
		levels   []int // of the merge hops, in order
		combine  int   // place.combine events
		plans    int   // netsim.plan events
	}{
		{"multi", CombinerTree, shared, "combiner-tree×2", []int{1, 0}, 6, 0},
		{"single", CombinerTreeSingle, shared, "combiner-tree", []int{0}, 0, 0},
		{"hash", Hash, shared, "hash", nil, 0, 0},
		{"planned", Planned, shared, "combiner-tree×2", []int{1, 0}, 6, 1},
		{"planned-flat", Planned, disjoint, "flat-hash", nil, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace, reg := obs.NewTrace(), obs.NewRegistry()
			res, err := tc.run(tr, tc.data, 5, netsim.WithTracer(trace), netsim.WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			if res.Strategy != tc.strategy || res.Report.NumRounds() != len(tc.levels)+1 {
				t.Fatalf("%s in %d rounds, want %s in %d", res.Strategy, res.Report.NumRounds(), tc.strategy, len(tc.levels)+1)
			}
			var steps, combine, plans int
			var shipped int64
			for _, ev := range trace.Events() {
				switch ev.Cat {
				case "place.combine":
					combine++
				case "netsim.plan":
					plans++
				case "aggregate.level":
					if steps == len(tc.levels) {
						t.Fatalf("span %q beyond the %d merge hops", ev.Name, steps)
					}
					if want := fmt.Sprintf("combine level %d", tc.levels[steps]); ev.Name != want ||
						len(ev.Args) != 1 || ev.Args["level"] != tc.levels[steps] {
						t.Errorf("span %q %v, want %q with its level alone", ev.Name, ev.Args, want)
					}
					shipped += res.Report.Rounds[steps].Elements
					steps++
				}
			}
			if steps != len(tc.levels) || combine != tc.combine || plans != tc.plans {
				t.Errorf("%d level spans, %d place.combine and %d netsim.plan events, want %d, %d and %d",
					steps, combine, plans, len(tc.levels), tc.combine, tc.plans)
			}
			snap := reg.Snapshot()
			if tc.levels == nil {
				for _, name := range []string{"aggregate.upsweep_rounds", "aggregate.shipped_elements"} {
					if _, ok := snap[name]; ok {
						t.Errorf("%s reported by a run of %s", name, res.Strategy)
					}
				}
				return
			}
			if _, ok := snap["aggregate.merged_groups"]; ok || snap["aggregate.upsweep_rounds"] != float64(steps) ||
				snap["aggregate.shipped_elements"] != float64(shipped) || shipped == 0 {
				t.Errorf("counters %v, spans: %d steps, %d shipped", snap, steps, shipped)
			}
		})
	}
}
