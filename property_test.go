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
// random trial, and the planned rows that price their baseline as a
// candidate (priced) never lose to it at all.
func TestPropertyAwareWithinToleranceOfBaseline(t *testing.T) {
	priced := map[string]bool{"join": true, "sort-aware": true, "aggregate": true}
	var paired []topompc.Task
	for _, spec := range topompc.Tasks() {
		if spec.Baseline != "" {
			paired = append(paired, spec)
		}
	}
	if len(paired) != 9 {
		t.Errorf("the table pairs %d tasks with a baseline, want 9", len(paired))
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
				tolerance := awareTolerance
				if priced[spec.Name] {
					tolerance = 1
				}
				if aware.Cost.Cost > base.Cost.Cost*tolerance {
					t.Errorf("%s cost %.3f exceeds %.1f× baseline %s (%.3f)",
						spec.Name, aware.Cost.Cost, tolerance, spec.Baseline, base.Cost.Cost)
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
