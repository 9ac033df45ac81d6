package graph

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/hashing"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
)

// testTrees is the topology zoo of the graph tests.
func testTrees(t *testing.T) map[string]*topology.Tree {
	t.Helper()
	star, err := topology.UniformStar(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	twotier, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	cater, err := topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fat, err := topology.FatTree(2, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Tree{
		"star": star, "twotier-skew": twotier, "caterpillar": cater, "fattree": fat,
	}
}

// placeEdges splits packed edges over p compute nodes round-robin and unpacks
// them into a graph placement.
func placeEdges(packed []uint64, p int) Placement {
	pl := make(Placement, p)
	for i, key := range packed {
		u, v := dataset.UnpackEdge(key)
		pl[i%p] = append(pl[i%p], Edge{U: uint64(u), V: uint64(v)})
	}
	return pl
}

// families generates the graph instances exercised by the tests.
func families(t *testing.T, rng *rand.Rand) map[string][]uint64 {
	t.Helper()
	gnp, err := dataset.GNP(rng, 300, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := dataset.PowerLaw(rng, 300, 900, 2)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := dataset.Grid(17, 19)
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := dataset.BridgeOfCliques(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]uint64{"gnp": gnp, "powerlaw": pl, "grid": grid, "bridge": bridge}
}

// inputs places every family round-robin over p compute nodes and adds the
// gnp family under hashed 64-bit vertex ids: dataset's generators number
// their vertices densely, so this is the input that takes the renumbering
// pass down its binary-search side (proto.idxOf) instead of the direct table.
func inputs(fams map[string][]uint64, p int) map[string]Placement {
	out := make(map[string]Placement, len(fams)+1)
	for name, packed := range fams {
		out[name] = placeEdges(packed, p)
	}
	hashed := make(Placement, p)
	for i, frag := range out["gnp"] {
		for _, e := range frag {
			hashed[i] = append(hashed[i], Edge{U: hashing.Mix64(e.U), V: hashing.Mix64(e.V)})
		}
	}
	out["gnp-hashed"] = hashed
	return out
}

// TestCCMatchesReference checks every variant against the union-find
// reference on every (topology, family) combination: component count,
// canonical min-labels for every vertex, checksum, and (for the forest
// variant) a valid spanning forest.
func TestCCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fams := families(t, rng)
	for tname, tree := range testTrees(t) {
		for fname, pl := range inputs(fams, tree.NumCompute()) {
			ref := Reference(pl)
			for vname, run := range map[string]func(*topology.Tree, Placement, uint64, ...netsim.Option) (*Result, error){
				"aware": CC, "flat": CCFlat, "forest": SpanningForest,
			} {
				t.Run(fmt.Sprintf("%s/%s/%s", tname, fname, vname), func(t *testing.T) {
					res, err := run(tree, pl, 42)
					if err != nil {
						t.Fatal(err)
					}
					if res.Components != ref.Count {
						t.Fatalf("components = %d, want %d", res.Components, ref.Count)
					}
					if res.Checksum != ref.Checksum {
						t.Fatalf("checksum = %x, want %x", res.Checksum, ref.Checksum)
					}
					labels := res.Labels()
					if len(labels) != len(ref.Labels()) {
						t.Fatalf("labeled %d vertices, want %d", len(labels), len(ref.Labels()))
					}
					for v, l := range ref.Labels() {
						if labels[v] != l {
							t.Fatalf("vertex %d labeled %d, want %d", v, labels[v], l)
						}
					}
					if vname == "forest" {
						if err := VerifyForest(ref, res.Forest); err != nil {
							t.Fatal(err)
						}
					}
					// Phases must stay logarithmic in the vertex count even
					// on the high-diameter grid.
					if maxP := 2 + int(math.Ceil(math.Log2(float64(len(ref.Labels()))))); res.Phases > maxP {
						t.Errorf("%d phases for %d vertices, want <= %d", res.Phases, len(ref.Labels()), maxP)
					}
					// Measured cost must dominate the per-cut information
					// bound.
					lb := lowerbound.Spanning(tree, ComponentSpread(tree, pl))
					if cost := res.Report.TotalCost(); cost < lb.Value*(1-1e-9) {
						t.Errorf("cost %.3f below connectivity bound %.3f", cost, lb.Value)
					}
				})
			}
		}
	}
}

// TestCCAwareBeatsFlatOnBridgeOfCliques pins the headline claim: on the
// adversarial bridge-of-cliques input over skewed trees, the aware
// protocol's cost must not exceed the flat baseline's.
func TestCCAwareBeatsFlatOnBridgeOfCliques(t *testing.T) {
	trees := testTrees(t)
	packed, err := dataset.BridgeOfCliques(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tname := range []string{"twotier-skew", "caterpillar"} {
		t.Run(tname, func(t *testing.T) {
			tree := trees[tname]
			pl := placeEdges(packed, tree.NumCompute())
			aware, err := CC(tree, pl, 42)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := CCFlat(tree, pl, 42)
			if err != nil {
				t.Fatal(err)
			}
			if ac, fc := aware.Report.TotalCost(), flat.Report.TotalCost(); ac > fc {
				t.Errorf("aware cost %.2f exceeds flat cost %.2f", ac, fc)
			} else {
				t.Logf("aware %.2f vs flat %.2f (win %.2fx)", ac, fc, fc/ac)
			}
		})
	}
}

// TestCCDeterministicAcrossWorkers pins the multicore hard invariant over
// a grid of kernels × worker counts × fixtures: every worker count must
// produce byte-identical labels, checksums, forests, and per-round cost
// reports — the wire traffic is the same protocol regardless of how the
// local compute is sharded.
func TestCCDeterministicAcrossWorkers(t *testing.T) {
	trees := testTrees(t)
	plRng := rand.New(rand.NewSource(9))
	plPacked, err := dataset.PowerLaw(plRng, 400, 1200, 2)
	if err != nil {
		t.Fatal(err)
	}
	gnpRng := rand.New(rand.NewSource(11))
	gnpPacked, err := dataset.GNP(gnpRng, 300, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		name   string
		tree   *topology.Tree
		packed []uint64
	}{
		{"twotier-powerlaw", trees["twotier-skew"], plPacked},
		{"caterpillar-gnp", trees["caterpillar"], gnpPacked},
	}
	kernels := map[string]func(*topology.Tree, Placement, uint64, ...netsim.Option) (*Result, error){
		"cc": CC, "cc-fast": CCFast, "spanforest": SpanningForest,
	}
	for _, fx := range fixtures {
		pl := placeEdges(fx.packed, fx.tree.NumCompute())
		for kname, kernel := range kernels {
			t.Run(fx.name+"/"+kname, func(t *testing.T) {
				run := func(workers int) *Result {
					res, err := kernel(fx.tree, pl, 42, netsim.WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				base := run(1)
				baseLabels := base.Labels()
				for _, workers := range []int{2, 8} {
					res := run(workers)
					if res.Checksum != base.Checksum || res.Components != base.Components || res.Phases != base.Phases {
						t.Fatalf("workers=%d diverged: %d/%x/%d vs %d/%x/%d", workers,
							res.Components, res.Checksum, res.Phases,
							base.Components, base.Checksum, base.Phases)
					}
					labels := res.Labels()
					if len(labels) != len(baseLabels) {
						t.Fatalf("workers=%d labeled %d vertices, want %d", workers, len(labels), len(baseLabels))
					}
					for v, l := range baseLabels {
						if labels[v] != l {
							t.Fatalf("workers=%d: vertex %d labeled %d, want %d", workers, v, labels[v], l)
						}
					}
					// Forest witnesses are emitted in deterministic hook
					// order, so even the ordering must match.
					if !slices.Equal(res.Forest, base.Forest) {
						t.Fatalf("workers=%d: forest diverged", workers)
					}
					ra, rb := res.Report, base.Report
					if ra.NumRounds() != rb.NumRounds() {
						t.Fatalf("workers=%d: round counts diverged: %d vs %d", workers, ra.NumRounds(), rb.NumRounds())
					}
					for i := range ra.Rounds {
						x, y := ra.Rounds[i], rb.Rounds[i]
						if x.Cost != y.Cost || x.Elements != y.Elements ||
							x.Messages != y.Messages || x.MaxReceived != y.MaxReceived {
							t.Fatalf("workers=%d round %d diverged: cost %v/%v elements %d/%d messages %d/%d maxrecv %d/%d",
								workers, i, x.Cost, y.Cost, x.Elements, y.Elements,
								x.Messages, y.Messages, x.MaxReceived, y.MaxReceived)
						}
					}
				}
			})
		}
	}
}

// shuffledPath is a path on n vertices under randomly permuted ids: it
// contracts by a small factor per phase, so a run takes many.
func shuffledPath(rng *rand.Rand, n int) []uint64 {
	ids := rng.Perm(n)
	path := make([]uint64, n-1)
	for k := range path {
		path[k] = dataset.PackEdge(uint32(ids[k]), uint32(ids[k+1]))
	}
	return path
}

// TestCCScratchTrims pins the contraction-time memory release: on an input
// big enough to cross the trim floor, the relabel walk must release or
// shrink scratch as the graph contracts, and the run must stay correct —
// in witness mode too, whose precollected proposal pairs ride through the
// trim into the next phase. The witness input is a path under shuffled ids,
// which contracts by a small factor per phase, so buffers cross the trim
// threshold while edges are still active; a trim that lost the pairs there
// would still converge, only later and dearer, so phases, cost and forest
// are held to the map oracle, which never trims.
func TestCCScratchTrims(t *testing.T) {
	tree := testTrees(t)["star"]
	rng := rand.New(rand.NewSource(13))
	const n = 40_000
	gnp, err := dataset.GNP(rng, n, 1.5e-4)
	if err != nil {
		t.Fatal(err)
	}
	path := shuffledPath(rng, n)
	for _, tc := range []struct {
		name   string
		run    func(*topology.Tree, Placement, uint64, ...netsim.Option) (*Result, error)
		packed []uint64
	}{
		{"cc", ccContraction, gnp}, {"spanforest", forestContraction, path},
	} {
		t.Run(tc.name, func(t *testing.T) {
			witness := tc.name == "spanforest"
			pl := placeEdges(tc.packed, tree.NumCompute())
			ref := Reference(pl)
			reg := obs.NewRegistry()
			res, err := tc.run(tree, pl, 42, netsim.WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			if res.Checksum != ref.Checksum || res.Components != ref.Count {
				t.Fatalf("trimmed run diverged from reference: %d/%x vs %d/%x",
					res.Components, res.Checksum, ref.Count, ref.Checksum)
			}
			if witness {
				if err := VerifyForest(ref, res.Forest); err != nil {
					t.Fatal(err)
				}
			}
			want, err := runMaps(tree, pl, 42, true, witness, !witness, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Phases != want.Phases || res.Report.TotalCost() != want.Report.TotalCost() || !slices.Equal(res.Forest, want.Forest) {
				t.Fatalf("trimmed run left the oracle's schedule: %d phases at cost %v, want %d at %v (forests equal: %v)",
					res.Phases, res.Report.TotalCost(), want.Phases, want.Report.TotalCost(), slices.Equal(res.Forest, want.Forest))
			}
			snap := reg.Snapshot()
			if trims := snap["graph.cc.scratch_trims"]; trims < 1 {
				t.Fatalf("graph.cc.scratch_trims = %v, want >= 1 (no scratch released during contraction)", trims)
			}
		})
	}
}

// TestCCEdgeCases covers degenerate inputs: empty graphs, self-loops only,
// a single giant clique, and parallel edges.
func TestCCEdgeCases(t *testing.T) {
	tree := testTrees(t)["star"]
	p := tree.NumCompute()
	cases := map[string]Placement{
		"empty":     make(Placement, p),
		"selfloops": placeEdges([]uint64{dataset.PackEdge(1, 1), dataset.PackEdge(2, 2)}, p),
		"parallel":  placeEdges([]uint64{dataset.PackEdge(1, 2), dataset.PackEdge(2, 1), dataset.PackEdge(1, 2)}, p),
		"pair":      placeEdges([]uint64{dataset.PackEdge(7, 3)}, p),
	}
	for name, pl := range cases {
		t.Run(name, func(t *testing.T) {
			ref := Reference(pl)
			for vname, run := range map[string]func(*topology.Tree, Placement, uint64, ...netsim.Option) (*Result, error){
				"aware": CC, "flat": CCFlat, "forest": SpanningForest, "fast": CCFast,
			} {
				res, err := run(tree, pl, 1)
				if err != nil {
					t.Fatalf("%s: %v", vname, err)
				}
				if res.Components != ref.Count || res.Checksum != ref.Checksum {
					t.Fatalf("%s: %d components (%x), want %d (%x)",
						vname, res.Components, res.Checksum, ref.Count, ref.Checksum)
				}
				if vname == "forest" {
					if err := VerifyForest(ref, res.Forest); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// The combining-plan unit tests live in internal/core/place with the
// hierarchy (TestDeepestLevelShapes, TestDeepestLevelPartition).

// TestPhaseRecorderSurface pins what a run tells the flight recorder about
// its phases, for both phase kinds: the counters of its own kind and none of
// the other's, and one span per phase with the phase's arguments. The input
// is a path under shuffled ids, which takes either kind several phases.
func TestPhaseRecorderSurface(t *testing.T) {
	tree := testTrees(t)["caterpillar"]
	pl := placeEdges(shuffledPath(rand.New(rand.NewSource(17)), 3000), tree.NumCompute())
	for _, tc := range []struct {
		name, span string
		run        func(*topology.Tree, Placement, uint64, ...netsim.Option) (*Result, error)
		args       []string
		counters   []string
		absent     []string
	}{
		{"cc", "boruvka phase %d", ccContraction, []string{"active_edges", "phase"},
			[]string{"graph.cc.phases", "graph.cc.active_edges.count"},
			[]string{"graph.ccfast.phases", "graph.ccfast.doubling_rounds"}},
		{"cc-fast", "expand phase %d", CCFast, []string{"active_edges", "doubling_rounds", "phase"},
			[]string{"graph.ccfast.phases"},
			[]string{"graph.cc.phases", "graph.cc.active_edges.count", "graph.ccfast.rounds_saved"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace, reg := obs.NewTrace(), obs.NewRegistry()
			res, err := tc.run(tree, pl, 42, netsim.WithTracer(trace), netsim.WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(Reference(pl), res); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			for _, name := range tc.counters {
				if got := snap[name]; got != float64(res.Phases) {
					t.Errorf("%s = %v, want the %d phases", name, got, res.Phases)
				}
			}
			for _, name := range tc.absent {
				if _, ok := snap[name]; ok {
					t.Errorf("%s reported by a %s run", name, tc.name)
				}
			}
			if _, ok := snap["graph.cc.scratch_trims"]; !ok {
				t.Error("graph.cc.scratch_trims not reported")
			}
			phase, doubling := 0, 0
			for _, ev := range trace.Events() {
				if ev.Cat != "graph.phase" {
					continue
				}
				phase++
				if want := fmt.Sprintf(tc.span, phase); ev.Name != want {
					t.Errorf("phase span %q, want %q", ev.Name, want)
				}
				if got := slices.Sorted(maps.Keys(ev.Args)); !slices.Equal(got, tc.args) {
					t.Errorf("%s: args %v, want %v", ev.Name, got, tc.args)
				}
				if ev.Args["phase"] != phase || ev.Args["active_edges"].(int) <= 0 {
					t.Errorf("%s: args %v", ev.Name, ev.Args)
				}
				if tc.name == "cc-fast" {
					doubling += ev.Args["doubling_rounds"].(int)
				}
			}
			if phase != res.Phases {
				t.Errorf("%d phase spans for %d phases", phase, res.Phases)
			}
			if tc.name == "cc-fast" {
				if got := snap["graph.ccfast.doubling_rounds"]; got != float64(doubling) || doubling == 0 {
					t.Errorf("graph.ccfast.doubling_rounds = %v, spans sum to %d", got, doubling)
				}
			}
		})
	}
}

// TestVerifyForestRejectsNonInputEdges pins VerifyForest's membership
// check: on a path 0-1-2-3 with the chord 0-2 (placed on two holders, one
// edge given twice, one vertex declared by a self-loop), a forest of input
// edges passes whichever way round each edge is given, and a forest that
// spans the same components without a cycle fails once it holds a pair
// that is no input edge, and one with an end outside the input names it.
func TestVerifyForestRejectsNonInputEdges(t *testing.T) {
	pl := Placement{
		{{U: 0, V: 1}, {U: 2, V: 1}, {U: 4, V: 4}},
		{{U: 2, V: 3}, {U: 0, V: 2}, {U: 1, V: 0}},
	}
	ref := Reference(pl)
	for _, forest := range [][]Edge{
		{{U: 1, V: 0}, {U: 1, V: 2}, {U: 3, V: 2}},
		{{U: 0, V: 1}, {U: 2, V: 0}, {U: 2, V: 3}},
	} {
		if err := VerifyForest(ref, forest); err != nil {
			t.Fatalf("forest %v: %v", forest, err)
		}
	}
	for _, forest := range [][]Edge{
		{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 3}},
		{{U: 3, V: 1}, {U: 1, V: 2}, {U: 0, V: 1}},
	} {
		err := VerifyForest(ref, forest)
		if err == nil || !strings.Contains(err.Error(), "not an input edge") {
			t.Fatalf("forest %v: %v, want a non-input edge named", forest, err)
		}
	}
	// Ids outside the input — the largest id, the largest input id plus
	// one, and one paired with the vertex only a self-loop declares — miss
	// the reference's table: the unknown vertex is named, never an index
	// taken past it.
	for _, forest := range [][]Edge{
		{{U: 0, V: 1}, {U: 1, V: 2}, {U: math.MaxUint64, V: 3}},
		{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: math.MaxUint64}},
		{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 5}},
		{{U: 5, V: 5}},
		{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 4, V: 9}},
		{{U: 9, V: 4}},
	} {
		err := VerifyForest(ref, forest)
		if err == nil || !strings.Contains(err.Error(), "unknown vertex") {
			t.Fatalf("forest %v: %v, want the unknown vertex named", forest, err)
		}
	}
}

// Labels merges the per-home labelings into one map (for verification).
func (r *Result) Labels() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for _, m := range r.PerNode {
		for v, l := range m {
			out[v] = l
		}
	}
	return out
}

// Labels maps every vertex to its canonical component label (the minimum
// vertex id of the component). It builds the map on each call.
func (r *Ref) Labels() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(r.ids))
	for k, id := range r.ids {
		out[id] = r.ids[r.root[k]]
	}
	return out
}
