package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// ccContraction and forestContraction are the contraction candidates of CC
// and SpanningForest run alone, with no gather to weigh: what the tests
// that pin the contraction's wire, phases and scratch drive.
func ccContraction(t *topology.Tree, edges Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return contract(t, edges, seed, variant{aware: true}, opts)
}

func forestContraction(t *topology.Tree, edges Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return contract(t, edges, seed, variant{aware: true, witness: true}, opts)
}

// placedGraph deals the edges of G(n, p) over the compute nodes of tr by
// placement: uniform, zipf, oneheavy (80% on node 0) or single (all on the
// last node).
func placedGraph(t *testing.T, rng *rand.Rand, tr *topology.Tree, n int, p float64, placement string) Placement {
	t.Helper()
	packed, err := dataset.GNP(rng, n, p)
	if err != nil {
		t.Fatal(err)
	}
	nc := tr.NumCompute()
	var frags dataset.Placement
	switch placement {
	case "uniform":
		frags, err = dataset.SplitUniform(packed, nc)
	case "zipf":
		frags, err = dataset.SplitZipf(rng, packed, nc, 1.2)
	case "oneheavy":
		frags, err = dataset.SplitOneHeavy(packed, nc, 0, 0.8)
	case "single":
		frags, err = dataset.SplitSingle(packed, nc, nc-1)
	}
	if err != nil {
		t.Fatal(err)
	}
	pl := make(Placement, nc)
	for i, frag := range frags {
		for _, key := range frag {
			u, v := dataset.UnpackEdge(key)
			pl[i] = append(pl[i], Edge{U: uint64(u), V: uint64(v)})
		}
	}
	return pl
}

// checkPlannedCC holds the planned run of one variant (CC or
// SpanningForest) to the oracle on one input: the labels equal the
// reference's and a forest passes VerifyForest; the result and every report
// byte are the same at workers 1 and 4; the planned cost is at most the
// contraction's run alone; and the run is either the gather, one round at
// its price and bottleneck (none when it costs 0), or the contraction
// alone, byte for byte. place.Gather's own oracle holds the price to the
// gather round priced at every node. It returns the planned result.
func checkPlannedCC(t *testing.T, name string, tr *topology.Tree, pl Placement, v variant) *Result {
	t.Helper()
	gp := priceGather(tr, pl)
	ref := Reference(pl)
	var res *Result
	for _, workers := range []int{1, 4} {
		got, err := contract(tr, pl, 5, v, []netsim.Option{netsim.WithWorkers(workers)})
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if err := Verify(ref, got); err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if !maps.Equal(got.Labels(), ref.Labels()) {
			t.Fatalf("%s workers=%d: labels differ from the reference", name, workers)
		}
		if v.witness {
			if err := VerifyForest(ref, got.Forest); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
		}
		if res == nil {
			res = got
			continue
		}
		if got.Strategy != res.Strategy || got.Phases != res.Phases || !reflect.DeepEqual(got.PerNode, res.PerNode) ||
			!slices.Equal(got.Forest, res.Forest) || serializeReport(got.Report) != serializeReport(res.Report) {
			t.Fatalf("%s: workers=%d result differs from workers=1", name, workers)
		}
	}
	alone := v
	alone.gather = false
	con, err := contract(tr, pl, 5, alone, nil)
	if err != nil {
		t.Fatalf("%s contraction: %v", name, err)
	}
	if got, c := res.Report.TotalCost(), con.Report.TotalCost(); got > c {
		t.Errorf("%s: planned %s costs %v, the contraction alone %v", name, res.Strategy, got, c)
	}
	if res.Strategy != "gather" {
		if serializeReport(res.Report) != serializeReport(con.Report) || res.Phases != con.Phases {
			t.Errorf("%s: the kept contraction differs from the contraction run alone", name)
		}
		return res
	}
	rounds := 1
	if gp.Cost == 0 {
		rounds = 0
	}
	if rep := res.Report; rep.NumRounds() != rounds || rep.TotalCost() != gp.Cost ||
		rounds == 1 && rep.Rounds[0].BottleneckEdge != gp.Bottleneck {
		t.Errorf("%s: gather ran %d rounds at %v, priced one at %v (bottleneck %d)", name, rep.NumRounds(), rep.TotalCost(), gp.Cost, gp.Bottleneck)
	}
	if res.Phases != 0 {
		t.Errorf("%s: gather reports %d phases", name, res.Phases)
	}
	for i, m := range res.PerNode {
		if n := len(m); i == gp.Node && n != len(ref.Labels()) || i != gp.Node && n != 0 {
			t.Fatalf("%s: node %d homes %d vertices, the gather homes all %d at node %d", name, i, n, len(ref.Labels()), gp.Node)
		}
	}
	return res
}

// TestPlannedConnectivity is the planner's oracle for cc and spanforest on
// every topotest shape under uniform, zipf, one-heavy and single-node
// placements. On the single-node placement the gather costs nothing, so
// both rows cost 0 and run no round, probe or gather.
func TestPlannedConnectivity(t *testing.T) {
	picks := map[bool]int{}
	for iter := 0; iter < 3*topotest.NumShapes; iter++ {
		rng := rand.New(rand.NewSource(int64(700 + iter)))
		shape, tr, err := topotest.Draw(rng, iter)
		if err != nil {
			t.Fatal(err)
		}
		for _, placement := range []string{"uniform", "zipf", "oneheavy", "single"} {
			// Sparse graphs, where the gather mostly wins, and dense ones,
			// where the contraction does.
			pl := placedGraph(t, rng, tr, 60+rng.Intn(120), []float64{0.03, 0.4}[iter/topotest.NumShapes%2], placement)
			for _, v := range []struct {
				name string
				v    variant
			}{
				{"cc", variant{aware: true, gather: true}},
				{"spanforest", variant{aware: true, witness: true, gather: true}},
			} {
				name := fmt.Sprintf("iter %d %s/%s/%s", iter, shape, placement, v.name)
				res := checkPlannedCC(t, name, tr, pl, v.v)
				picks[res.Strategy == "gather"]++
				if placement != "single" {
					continue
				}
				if res.Strategy != "gather" || res.Report.NumRounds() != 0 {
					t.Errorf("%s: %s in %d rounds, want a gather of none", name, res.Strategy, res.Report.NumRounds())
				}
				reg := obs.NewRegistry()
				if _, err := contract(tr, pl, 5, v.v, []netsim.Option{netsim.WithMetrics(reg)}); err != nil {
					t.Fatal(err)
				}
				if snap := reg.Snapshot(); snap["netsim.rounds"] != 0 || snap["netsim.priced_rounds"] != 0 {
					t.Errorf("%s: %v rounds run and %v priced, want none", name, snap["netsim.rounds"], snap["netsim.priced_rounds"])
				}
			}
		}
	}
	// Both candidates must be exercised for the oracle to mean anything.
	t.Logf("the gather is picked on %d runs of %d", picks[true], picks[true]+picks[false])
	if picks[true] == 0 || picks[false] == 0 {
		t.Fatalf("the planner picked the gather %d times and the contraction %d", picks[true], picks[false])
	}
}

// TestPlannedTrace: a traced cc on a caterpillar, where the gather wins,
// emits exactly one netsim.plan instant, which names both candidates with
// the probe's rounds and cost and the gather's price, and picks the gather;
// its Report has the gather's one round, named gather, as the one round
// event, and the probe's rounds count as priced, not run, and no phase. On a
// dense input the contraction is kept: one plan instant picks it, and every
// round it ran is a round event named by its step.
func TestPlannedTrace(t *testing.T) {
	tree := testTrees(t)["caterpillar"]
	rng := rand.New(rand.NewSource(7))
	sparse, err := dataset.GNP(rng, 300, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := dataset.GNP(rng, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		packed []uint64
		gather bool
	}{{"sparse", sparse, true}, {"dense", dense, false}} {
		pl := placeEdges(tc.packed, tree.NumCompute())
		trace, reg := obs.NewTrace(), obs.NewRegistry()
		res, err := CC(tree, pl, 42, netsim.WithTracer(trace), netsim.WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(Reference(pl), res); err != nil {
			t.Fatal(err)
		}
		if got := res.Strategy == "gather"; got != tc.gather {
			t.Fatalf("%s: strategy %s", tc.name, res.Strategy)
		}
		var plans, rounds []obs.Event
		for _, ev := range trace.Events() {
			switch ev.Cat {
			case "netsim.plan":
				plans = append(plans, ev)
			case "netsim.round":
				rounds = append(rounds, ev)
			}
		}
		if len(plans) != 1 || plans[0].Args["pick"] != res.Strategy {
			t.Fatalf("%s: plan events %v, want one picking %s", tc.name, plans, res.Strategy)
		}
		cands := plans[0].Args["candidates"].([]any)
		con, gat := cands[0].(map[string]any), cands[1].(map[string]any)
		probeRounds := con["rounds"].(int)
		gp := priceGather(tree, pl)
		if gat["name"] != "gather" || gat["rounds"] != 1 || gat["cost"] != gp.Cost {
			t.Errorf("%s: gather candidate %v, priced %v", tc.name, gat, gp.Cost)
		}
		if len(rounds) != res.Report.NumRounds() {
			t.Errorf("%s: %d round events for %d rounds", tc.name, len(rounds), res.Report.NumRounds())
		}
		for i, ev := range rounds {
			steps := []string{"propose", "jump", "answer"}
			if tc.gather {
				steps = []string{"gather"}
			}
			if lb := res.Report.Rounds[i].Label; ev.Name != lb || !slices.Contains(steps, lb) {
				t.Errorf("%s: round %d is named %q, labelled %q, want one of %v", tc.name, i, ev.Name, lb, steps)
			}
		}
		snap := reg.Snapshot()
		if snap["graph.cc.phases"] != float64(res.Phases) {
			t.Errorf("%s: graph.cc.phases = %v for %d phases", tc.name, snap["graph.cc.phases"], res.Phases)
		}
		if tc.gather {
			if res.Report.NumRounds() != 1 || res.Report.TotalCost() != gp.Cost || con["cost"].(float64) < gp.Cost || probeRounds == 0 {
				t.Errorf("%s: gather in %d rounds at %v, probe %v", tc.name, res.Report.NumRounds(), res.Report.TotalCost(), con)
			}
			if snap["netsim.rounds"] != 1 || snap["netsim.priced_rounds"] != float64(probeRounds) {
				t.Errorf("%s: %v rounds run and %v priced, want 1 and %d", tc.name, snap["netsim.rounds"], snap["netsim.priced_rounds"], probeRounds)
			}
		} else {
			if con["cost"].(float64) >= gp.Cost {
				t.Errorf("%s: kept a phase 1 of cost %v against a gather of %v", tc.name, con["cost"], gp.Cost)
			}
			if snap["netsim.rounds"] != float64(res.Report.NumRounds()) || snap["netsim.priced_rounds"] != 0 {
				t.Errorf("%s: %v rounds run and %v priced, want %d and 0", tc.name, snap["netsim.rounds"], snap["netsim.priced_rounds"], res.Report.NumRounds())
			}
		}
	}
}
