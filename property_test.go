package topompc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"topompc"
	"topompc/internal/cliutil"
	"topompc/internal/dataset"
	"topompc/internal/topology"
)

// Property harness (tier-1, seeded): on random trees and random
// placements, every protocol's simulated cost must dominate its instance
// lower bound, and no topology-aware variant may exceed its
// topology-oblivious baseline by more than a fixed tolerance factor. The
// seeds are fixed, so the assertions are deterministic; they exist to
// catch future routing or accounting changes that break the cost model's
// invariants on inputs nobody hand-picked.

// awareTolerance bounds how much worse than its baseline an aware variant
// may ever be on a random instance. Aware protocols optimize for skewed
// topologies and can lose modestly on benign ones (e.g. two-round
// aggregation vs one-round hashing); they must never lose big.
const awareTolerance = 3.0

func randomTrials(t *testing.T) []struct {
	name    string
	cluster *topompc.Cluster
	place   string
	seed    uint64
} {
	t.Helper()
	places := []string{"uniform", "zipf", "oneheavy"}
	var trials []struct {
		name    string
		cluster *topompc.Cluster
		place   string
		seed    uint64
	}
	for trial := 0; trial < 10; trial++ {
		seed := int64(1000 + trial*7)
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(9) // 2..10 compute nodes
		r := 1 + rng.Intn(6) // 1..6 routers
		minBW := 1 + rng.Float64()*2
		maxBW := minBW + rng.Float64()*8
		tree, err := topology.Random(rng, p, r, minBW, maxBW)
		if err != nil {
			t.Fatal(err)
		}
		trials = append(trials, struct {
			name    string
			cluster *topompc.Cluster
			place   string
			seed    uint64
		}{
			name:    fmt.Sprintf("tree%02d-p%d-r%d-%s", trial, p, r, places[trial%len(places)]),
			cluster: topompc.NewCluster(tree),
			place:   places[trial%len(places)],
			seed:    uint64(seed),
		})
	}
	return trials
}

// TestPropertyCostDominatesLowerBound: measured cost ≥ instance lower
// bound for every task on every random trial.
func TestPropertyCostDominatesLowerBound(t *testing.T) {
	for _, trial := range randomTrials(t) {
		trial := trial
		t.Run(trial.name, func(t *testing.T) {
			for _, spec := range topompc.Tasks() {
				in := propertyInput(t, spec, trial.cluster, trial.place, trial.seed)
				res, err := trial.cluster.RunTask(spec.Name, in)
				if err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
				// Tiny slack for float accumulation only; the bounds are in
				// the same element units as the cost.
				if res.Cost.Cost < res.Cost.LowerBound*(1-1e-9) {
					t.Errorf("%s: cost %.6f below lower bound %.6f",
						spec.Name, res.Cost.Cost, res.Cost.LowerBound)
				}
			}
		})
	}
}

// TestPropertyAwareWithinToleranceOfBaseline: aware variants never lose
// to their baselines (Task.Baseline) by more than awareTolerance on any
// random trial.
func TestPropertyAwareWithinToleranceOfBaseline(t *testing.T) {
	var paired []topompc.Task
	for _, spec := range topompc.Tasks() {
		if spec.Baseline != "" {
			paired = append(paired, spec)
		}
	}
	if len(paired) != 10 {
		t.Errorf("the table pairs %d tasks with a baseline, want 10", len(paired))
	}
	for _, trial := range randomTrials(t) {
		trial := trial
		t.Run(trial.name, func(t *testing.T) {
			for _, spec := range paired {
				in := propertyInput(t, spec, trial.cluster, trial.place, trial.seed)
				aware, err := trial.cluster.RunTask(spec.Name, in)
				if err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
				base, err := trial.cluster.RunTask(spec.Baseline, in)
				if err != nil {
					t.Fatalf("%s: %v", spec.Baseline, err)
				}
				if aware.Cost.Cost > base.Cost.Cost*awareTolerance {
					t.Errorf("%s cost %.3f exceeds %.1f× baseline %s (%.3f)",
						spec.Name, aware.Cost.Cost, awareTolerance, spec.Baseline, base.Cost.Cost)
				}
			}
		})
	}
}

// TestPropertyGraphAwareBeatsFlatOnBridges pins the graph subsystem's
// headline property: on the bridge-of-cliques input — the adversarial case
// for weak cuts — the topology-aware connected-components protocol must
// not cost more than the flat baseline on the skewed fixture trees, for
// both uniform and skewed edge placements.
func TestPropertyGraphAwareBeatsFlatOnBridges(t *testing.T) {
	packed, err := dataset.BridgeOfCliques(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []string{"twotier-skew", "caterpillar"} {
		for _, place := range []string{"uniform", "zipf"} {
			t.Run(fmt.Sprintf("%s/%s", topo, place), func(t *testing.T) {
				c := fixtureCluster(t, topo)
				seed := fixtureSeed("cc", topo, place, "bridge")
				edges := append([]uint64(nil), packed...)
				rng := rand.New(rand.NewSource(int64(seed)))
				dataset.Shuffle(rng, edges)
				placer, err := cliutil.Placer(place, int64(seed))
				if err != nil {
					t.Fatal(err)
				}
				data, err := placer(rng, edges, c.NumNodes())
				if err != nil {
					t.Fatal(err)
				}
				in := topompc.TaskInput{Data: data, Seed: seed}
				aware, err := c.RunTask("cc", in)
				if err != nil {
					t.Fatal(err)
				}
				flat, err := c.RunTask("cc-flat", in)
				if err != nil {
					t.Fatal(err)
				}
				if aware.Cost.Cost > flat.Cost.Cost {
					t.Errorf("aware cost %.2f exceeds flat cost %.2f", aware.Cost.Cost, flat.Cost.Cost)
				}
				if aware.Cost.Cost < aware.Cost.LowerBound*(1-1e-9) {
					t.Errorf("aware cost %.2f below connectivity bound %.2f",
						aware.Cost.Cost, aware.Cost.LowerBound)
				}
			})
		}
	}
}

// TestPropertyFastRoundsBeatBoruvka pins the cc-fast round-count
// contract: on a low-diameter G(n,p) input, budgeted exponentiation must
// need no more exchange rounds than the Borůvka schedule of cc, and on
// the high-diameter path/grid adversaries — where doubling cannot beat
// hooking — it may pay at most one extra round over cc (the doubling
// entry round before the volume guard trips into the fallback phase).
// Labels are verified against the union-find reference inside both runs.
func TestPropertyFastRoundsBeatBoruvka(t *testing.T) {
	n := 900
	rng := rand.New(rand.NewSource(404))
	gnp, err := dataset.GNP(rng, n, 8/float64(n))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := dataset.Grid(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	path, err := dataset.Grid(1, n)
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name   string
		packed []uint64
		slack  int // extra rounds allowed over cc
	}{
		{"gnp", gnp, 0}, {"grid", grid, 1}, {"path", path, 1},
	}
	for _, topo := range []string{"twotier-skew", "caterpillar"} {
		c := fixtureCluster(t, topo)
		for _, fam := range families {
			fam := fam
			t.Run(fmt.Sprintf("%s/%s", topo, fam.name), func(t *testing.T) {
				edges := make([][]topompc.GraphEdge, c.NumNodes())
				for i, key := range fam.packed {
					u, v := dataset.UnpackEdge(key)
					j := i % len(edges)
					edges[j] = append(edges[j], topompc.GraphEdge{U: uint64(u), V: uint64(v)})
				}
				seed := fixtureSeed("cc-fast", topo, fam.name)
				slow, err := c.ConnectedComponents(edges, seed)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := c.ConnectedComponentsFast(edges, seed)
				if err != nil {
					t.Fatal(err)
				}
				if fast.Components != slow.Components {
					t.Errorf("cc-fast found %d components, cc %d", fast.Components, slow.Components)
				}
				sr, fr := slow.Report.NumRounds(), fast.Report.NumRounds()
				if fr > sr+fam.slack {
					t.Errorf("cc-fast took %d rounds, cc %d (allowed slack %d)", fr, sr, fam.slack)
				}
			})
		}
	}
}

func propertyInput(t *testing.T, spec topompc.Task, c *topompc.Cluster, place string, seed uint64) topompc.TaskInput {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(fixtureSeed(spec.Name, place, fmt.Sprint(seed)))))
	placer, err := cliutil.Placer(place, int64(seed))
	if err != nil {
		t.Fatal(err)
	}
	in, err := cliutil.TaskData(spec, rng, placer, c.NumNodes(), 600, 0, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}
