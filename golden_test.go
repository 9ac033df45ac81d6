package topompc_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"topompc"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Golden cost-regression harness: every registry task runs on the fixed
// fixture set (fixtureTopos × fixturePlacements) and its Report-level cost
// accounting is compared against checked-in golden JSON. Any change to
// protocol routing, exchange accounting, or lower bounds shows up as a
// diff here before it can silently regress.
//
// Regenerate after an intentional change with
//
//	go test -run TestGoldenCosts -update
var update = flag.Bool("update", false, "rewrite testdata/golden_costs.json with current results")

const goldenN = 2400

// goldenEntry is the recorded outcome of one (task, topo, placement)
// combination.
type goldenEntry struct {
	Rounds     int     `json:"rounds"`
	Cost       float64 `json:"cost"`
	LowerBound float64 `json:"lower_bound"`
	Elements   int64   `json:"elements"`
}

func goldenPath() string { return filepath.Join("testdata", "golden_costs.json") }

// runGoldenGrid executes every registry task on the fixture grid and checks
// each row's totals against its rounds (checkTotals). A non-nil execOpts is
// applied to each cluster before running — the flight-recorder regression
// test uses this to prove instrumentation leaves the accounting untouched.
func runGoldenGrid(t *testing.T, execOpts *topompc.ExecOptions) map[string]goldenEntry {
	t.Helper()
	got := make(map[string]goldenEntry)
	for _, topo := range fixtureTopos {
		for _, place := range fixturePlacements {
			c, err := topo.Build()
			if err != nil {
				t.Fatal(err)
			}
			if execOpts != nil {
				c.SetExecOptions(*execOpts)
			}
			for _, spec := range topompc.Tasks() {
				key := fmt.Sprintf("%s/%s/%s", spec.Name, topo.Name, place)
				in := fixtureInput(t, spec, c, topo.Name, place, goldenN)
				res, err := c.RunTask(spec.Name, in)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				checkTotals(t, key, res.Report)
				got[key] = goldenEntry{
					Rounds:     res.Cost.Rounds,
					Cost:       res.Cost.Cost,
					LowerBound: res.Cost.LowerBound,
					Elements:   res.Cost.Elements,
				}
			}
		}
	}
	return got
}

func TestGoldenCosts(t *testing.T) {
	got := runGoldenGrid(t, nil)

	if *update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]goldenEntry, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenPath())
		return
	}

	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run TestGoldenCosts -update` to create it): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: in golden file but not produced (stale entry? rerun -update)", key)
			continue
		}
		if g.Rounds != w.Rounds || g.Elements != w.Elements ||
			!floatsClose(g.Cost, w.Cost) || !floatsClose(g.LowerBound, w.LowerBound) {
			t.Errorf("%s: got %+v, want %+v", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: produced but missing from golden file (new task/fixture? rerun -update)", key)
		}
	}
}

// TestGoldenEdgeTotalsBoundCost runs the golden grid, which holds every
// row's totals to its costed rounds (checkTotals), at 1 and 4 workers.
func TestGoldenEdgeTotalsBoundCost(t *testing.T) {
	for _, workers := range []int{1, 4} {
		runGoldenGrid(t, &topompc.ExecOptions{Workers: workers})
	}
}

// TestEmptyInputTotals runs every task on every fixture with empty input,
// which takes the protocols' no-communication shortcuts, and holds each
// report to checkTotals: a shortcut's report carries totals of the tree's
// shape like an engine's.
func TestEmptyInputTotals(t *testing.T) {
	for _, topo := range fixtureTopos {
		c, err := topo.Build()
		if err != nil {
			t.Fatal(err)
		}
		p := c.NumNodes()
		for _, spec := range topompc.Tasks() {
			in := topompc.TaskInput{R: make([][]uint64, p), S: make([][]uint64, p), Data: make([][]uint64, p)}
			for j := 0; j < max(spec.NumRelations, 3); j++ {
				in.Rels = append(in.Rels, make([][]uint64, p))
			}
			key := spec.Name + "/" + topo.Name + "/empty"
			res, err := c.RunTask(spec.Name, in)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			checkTotals(t, key, res.Report)
		}
	}
}

// checkTotals ties a report's running totals to its costed rounds: it
// carries per-edge and per-node totals for the tree it ran on, and since a
// sum over rounds of per-round maxima is at least the maximum of the sums,
// TotalCost ≥ max_e EdgeTotals[e]/w_e, with equality on one round.
func checkTotals(t *testing.T, key string, rep *netsim.Report) {
	t.Helper()
	tr := rep.Tree
	if len(rep.EdgeTotals) != tr.NumEdges() || len(rep.SentTotals) != tr.NumNodes() || len(rep.RecvTotals) != tr.NumNodes() {
		t.Fatalf("%s: totals cover %d edges and %d, %d nodes of a tree with %d edges and %d nodes",
			key, len(rep.EdgeTotals), len(rep.SentTotals), len(rep.RecvTotals), tr.NumEdges(), tr.NumNodes())
	}
	var worst float64
	for e, n := range rep.EdgeTotals {
		worst = math.Max(worst, float64(n)/tr.Bandwidth(topology.EdgeID(e)))
	}
	switch total := rep.TotalCost(); {
	case rep.NumRounds() == 1 && total != worst:
		t.Errorf("%s: one round of cost %v, its edge totals give %v", key, total, worst)
	case total < worst && !floatsClose(total, worst):
		t.Errorf("%s: %d rounds cost %v, below their edge totals' %v", key, rep.NumRounds(), total, worst)
	}
}

// TestGoldenPlaceAwareVsFlat pins the placement-engine protocols on the
// golden fixtures: the planned sort (sort-aware) and combiner-tree
// aggregation (agg-aware) must strictly beat their flat counterparts on the
// skewed two-tier and caterpillar topologies. Both tasks of a pair run on
// the same input, so the ratio isolates the lever. sort-aware and join
// price their flat counterparts as one of their candidates, so their
// parity bound is 1.0× on every fixture and placement; agg-aware must stay
// within 1.05× on the symmetric star and fat-tree (where no combining plan
// engages and it coincides with its baseline by construction).
func TestGoldenPlaceAwareVsFlat(t *testing.T) {
	beats := []struct {
		aware, flat, topo, place string
	}{
		{"sort-aware", "sort-aware-flat", "twotier-skew", "oneheavy"},
		{"sort-aware", "sort-aware-flat", "caterpillar", "uniform"},
		{"agg-aware", "agg-aware-flat", "twotier-skew", "uniform"},
		{"agg-aware", "agg-aware-flat", "twotier-skew", "zipf"},
		{"agg-aware", "agg-aware-flat", "twotier-skew", "oneheavy"},
		{"agg-aware", "agg-aware-flat", "caterpillar", "uniform"},
		{"agg-aware", "agg-aware-flat", "caterpillar", "zipf"},
	}
	for _, tc := range beats {
		t.Run(fmt.Sprintf("beats/%s/%s/%s", tc.aware, tc.topo, tc.place), func(t *testing.T) {
			aware, flat := runPair(t, tc.aware, tc.flat, tc.topo, tc.place)
			if aware >= flat {
				t.Errorf("aware cost %.1f not below flat %.1f", aware, flat)
			} else {
				t.Logf("ratio %.3f (aware %.1f / flat %.1f)", aware/flat, aware, flat)
			}
		})
	}
	for _, pair := range [][2]string{{"sort-aware", "sort-aware-flat"}, {"join", "join-baseline"}} {
		for _, topo := range fixtureTopos {
			for _, place := range fixturePlacements {
				t.Run(fmt.Sprintf("parity/%s/%s/%s", pair[0], topo.Name, place), func(t *testing.T) {
					aware, flat := runPair(t, pair[0], pair[1], topo.Name, place)
					if aware > flat {
						t.Errorf("planned cost %.1f exceeds its flat candidate's %.1f", aware, flat)
					}
				})
			}
		}
	}
	for _, topo := range []string{"star-uniform", "fattree"} {
		for _, place := range fixturePlacements {
			t.Run(fmt.Sprintf("parity/agg-aware/%s/%s", topo, place), func(t *testing.T) {
				aware, flat := runPair(t, "agg-aware", "agg-aware-flat", topo, place)
				if flat > 0 && aware > flat*1.05 {
					t.Errorf("aware cost %.1f exceeds 1.05× flat %.1f on symmetric topology", aware, flat)
				}
			})
		}
	}
}

// TestGoldenHierarchyBeatsSingleLevel pins the recursive weak-cut
// hierarchy on the golden fixtures: the multi-level combiner tree
// (agg-tree2) must strictly beat the single-level combiner tree
// (agg-aware) on the deep-gradient fixtures — the tapered fat-tree and the
// graded caterpillar, where the hierarchy has depth 2 and partials merge
// per pod/half before crossing the thin core — and must stay within 1.05×
// of it everywhere else (single-band fixtures have depth-≤1 hierarchies,
// where the two protocols coincide by construction). Both tasks run on
// the same input, so the ratio isolates the extra hierarchy levels.
func TestGoldenHierarchyBeatsSingleLevel(t *testing.T) {
	deep := map[string]bool{"fattree-taper": true, "caterpillar-grade": true}
	for _, topo := range fixtureTopos {
		for _, place := range fixturePlacements {
			t.Run(fmt.Sprintf("%s/%s", topo.Name, place), func(t *testing.T) {
				multi, single := runPair(t, "agg-tree2", "agg-aware", topo.Name, place)
				if deep[topo.Name] {
					if multi >= single {
						t.Errorf("multi-level cost %.1f not below single-level %.1f", multi, single)
					} else {
						t.Logf("ratio %.3f (multi %.1f / single %.1f)", multi/single, multi, single)
					}
				} else if single > 0 && multi > single*1.05 {
					t.Errorf("multi-level cost %.1f exceeds 1.05× single-level %.1f on depth-≤1 topology", multi, single)
				}
			})
		}
	}
}

// runPair executes an aware task and its flat counterpart on the same
// fixture input and returns both costs.
func runPair(t *testing.T, aware, flat, topo, place string) (awareCost, flatCost float64) {
	t.Helper()
	c := fixtureCluster(t, topo)
	spec, ok := topompc.LookupTask(aware)
	if !ok {
		t.Fatalf("unknown task %s", aware)
	}
	in := fixtureInput(t, spec, c, topo, place, goldenN)
	a, err := c.RunTask(aware, in)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.RunTask(flat, in)
	if err != nil {
		t.Fatal(err)
	}
	return a.Cost.Cost, f.Cost.Cost
}

// floatsClose tolerates only float-formatting noise; the executions
// themselves are deterministic.
func floatsClose(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

// TestGoldenAwareBeatsFlat pins the headline result on the golden
// fixtures: the topology-aware multiway joins must strictly beat their
// flat-HyperCube baselines on the skewed two-tier and caterpillar
// topologies. The star shape on the two-tier tree additionally needs
// data concentrated on the fast rack (the oneheavy placement), since with
// perfectly uniform data the weak-uplink traffic of a unicast hash
// partition is invariant to the target weights.
func TestGoldenAwareBeatsFlat(t *testing.T) {
	cases := []struct {
		aware, flat, topo, place string
	}{
		{"triangle", "triangle-flat", "twotier-skew", "uniform"},
		{"triangle", "triangle-flat", "twotier-skew", "zipf"},
		{"triangle", "triangle-flat", "caterpillar", "uniform"},
		{"triangle", "triangle-flat", "caterpillar", "zipf"},
		{"starjoin", "starjoin-flat", "twotier-skew", "oneheavy"},
		{"starjoin", "starjoin-flat", "caterpillar", "uniform"},
		{"cc", "cc-flat", "twotier-skew", "uniform"},
		{"cc", "cc-flat", "twotier-skew", "zipf"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s/%s", tc.aware, tc.topo, tc.place), func(t *testing.T) {
			c := fixtureCluster(t, tc.topo)
			spec, ok := topompc.LookupTask(tc.aware)
			if !ok {
				t.Fatalf("unknown task %s", tc.aware)
			}
			in := fixtureInput(t, spec, c, tc.topo, tc.place, goldenN)
			aware, err := c.RunTask(tc.aware, in)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := c.RunTask(tc.flat, in)
			if err != nil {
				t.Fatal(err)
			}
			if aware.Cost.Cost >= flat.Cost.Cost {
				t.Errorf("aware cost %.1f not below flat %.1f", aware.Cost.Cost, flat.Cost.Cost)
			}
		})
	}
}
