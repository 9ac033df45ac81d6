// Shared fixtures for the cost-regression, property, and determinism test
// harnesses. These live in the external test package so they can reuse the
// cliutil task-input generator (which imports topompc).
package topompc_test

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"topompc"
	"topompc/internal/cliutil"
)

// fixtureTopos is the fixed topology zoo of the golden harness: a uniform
// star, a two-tier tree with 16:1 skewed uplinks, a symmetric fat-tree, a
// caterpillar with weak spine ends, and two deep-gradient shapes for the
// weak-cut hierarchy — a tapered fat-tree (thin core: pods behind 2.56×
// links, racks behind 6.4×, leaves at 16) and a graded caterpillar whose
// spine weakens toward a 0.5× middle cut. The first four have single-band
// hierarchies (depth ≤ 1), so their entries pin the flat decomposition;
// the last two have depth-2 hierarchies and pin the multi-level levers.
var fixtureTopos = []struct {
	Name  string
	Build func() (*topompc.Cluster, error)
}{
	{"star-uniform", func() (*topompc.Cluster, error) {
		return topompc.StarCluster([]float64{2, 2, 2, 2, 2, 2, 2, 2})
	}},
	{"twotier-skew", func() (*topompc.Cluster, error) {
		return topompc.TwoTierCluster([]int{4, 4}, []float64{16, 1}, 16)
	}},
	{"fattree", func() (*topompc.Cluster, error) {
		return topompc.FatTreeCluster(2, 3, 2, 3)
	}},
	{"caterpillar", func() (*topompc.Cluster, error) {
		return topompc.CaterpillarCluster([]float64{1, 2, 4, 2, 1}, 4)
	}},
	{"fattree-taper", func() (*topompc.Cluster, error) {
		return topompc.FatTreeCluster(3, 2, 16, 0.25)
	}},
	{"caterpillar-grade", func() (*topompc.Cluster, error) {
		return topompc.CaterpillarCluster([]float64{8, 3, 0.5, 3, 8}, 8)
	}},
	// General (non-tree) networks, compressed to Gomory–Hu cut trees by
	// the constructors: their entries pin the FromGraph front-end — cut
	// weights, node order, and everything protocols derive from them.
	{"mesh", func() (*topompc.Cluster, error) {
		return topompc.MeshCluster(3, 4, 2.5)
	}},
	{"ring-of-racks", func() (*topompc.Cluster, error) {
		return topompc.RingOfRacksCluster(4, 2, 3, 8)
	}},
	{"clos", func() (*topompc.Cluster, error) {
		return topompc.ClosCluster(2, 3, 2, 4, 10)
	}},
}

// fixturePlacements names the initial data distributions of the harness.
var fixturePlacements = []string{"uniform", "zipf"}

// fixtureSeed derives a stable per-combination seed so adding or removing
// combinations never shifts another combination's input data.
func fixtureSeed(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// fixtureCluster builds the named fixture topology.
func fixtureCluster(t *testing.T, name string) *topompc.Cluster {
	t.Helper()
	for _, f := range fixtureTopos {
		if f.Name == name {
			c, err := f.Build()
			if err != nil {
				t.Fatalf("building %s: %v", name, err)
			}
			return c
		}
	}
	t.Fatalf("unknown fixture topology %q", name)
	return nil
}

// fixtureInput generates the deterministic input for one (task, topo,
// placement) combination.
func fixtureInput(t *testing.T, spec topompc.Task, c *topompc.Cluster, topo, place string, n int) topompc.TaskInput {
	t.Helper()
	seed := fixtureSeed(spec.Name, topo, place)
	rng := rand.New(rand.NewSource(int64(seed)))
	placer, err := cliutil.Placer(place, int64(seed))
	if err != nil {
		t.Fatal(err)
	}
	in, err := cliutil.TaskData(spec, rng, placer, c.NumNodes(), n, 0, 0, seed)
	if err != nil {
		t.Fatalf("%s/%s/%s: generating input: %v", spec.Name, topo, place, err)
	}
	return in
}
