package exper

import (
	"fmt"
	"math/rand"

	"topompc/internal/core/aggregate"
	"topompc/internal/core/graph"
	"topompc/internal/dataset"
	"topompc/internal/topology"
)

// This file builds what the experiments run on: the named topologies, the
// data placements, and the generated inputs of each task family. Every step
// that can fail returns its error to the cell that asked for it.

// namedTopo is a topology instantiated for a sweep.
type namedTopo struct {
	name string
	tree *topology.Tree
}

// topologies are the tree shapes the sweeps share, by the name their tables
// print: the suite of Table 1 (stars uniform and heterogeneous, a two-tier
// datacenter, a fat tree, a caterpillar) and the zoo of the extensions.
var topologies = map[string]func() (*topology.Tree, error){
	"star-uniform": func() (*topology.Tree, error) { return topology.UniformStar(8, 1) },
	"star-hetero":  func() (*topology.Tree, error) { return topology.Star([]float64{1, 1, 2, 2, 4, 4, 8, 8}) },
	"two-tier":     func() (*topology.Tree, error) { return topology.TwoTier([]int{4, 4, 4}, []float64{4, 2, 1}, 8) },
	"fat-tree":     func() (*topology.Tree, error) { return topology.FatTree(2, 3, 2, 3) },
	"caterpillar":  func() (*topology.Tree, error) { return topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4) },

	"star":          func() (*topology.Tree, error) { return topology.UniformStar(8, 2) },
	"two-tier 16:1": func() (*topology.Tree, error) { return topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16) },
	// Graded rack uplinks under a graded spine: the multi-tier cluster
	// shape of the motivation.
	"three-tier 48:12:3": func() (*topology.Tree, error) {
		return topology.TwoTier([]int{3, 3, 3, 3}, []float64{12, 3, 12, 3}, 48)
	},
	"fat-tree taper":    func() (*topology.Tree, error) { return topology.FatTree(3, 2, 16, 0.25) },
	"caterpillar grade": func() (*topology.Tree, error) { return topology.Caterpillar([]float64{8, 3, 0.5, 3, 8}, 8) },
}

// must unwraps a tree built from the literals of this package: a constructor
// that rejects one is a bug here, not an input error, so it panics, as
// topology.Figure1a does.
func must(t *topology.Tree, err error) *topology.Tree {
	if err != nil {
		panic(fmt.Sprintf("exper: topology literal: %v", err))
	}
	return t
}

// topo builds a named topology.
func topo(name string) *topology.Tree { return must(topologies[name]()) }

// topos builds the named topologies, in the order given.
func topos(names ...string) []namedTopo {
	out := make([]namedTopo, len(names))
	for i, name := range names {
		out[i] = namedTopo{name, topo(name)}
	}
	return out
}

// topoSuite is the topology sweep of Table 1.
func topoSuite(quick bool) []namedTopo {
	if quick {
		return topos("star-uniform", "star-hetero", "two-tier")
	}
	return topos("star-uniform", "star-hetero", "two-tier", "fat-tree", "caterpillar")
}

// placement lays a key set out over p compute nodes.
type placement func(rng *rand.Rand, keys []uint64, p int) (dataset.Placement, error)

func uniform(_ *rand.Rand, keys []uint64, p int) (dataset.Placement, error) {
	return dataset.SplitUniform(keys, p)
}

func zipf(rng *rand.Rand, keys []uint64, p int) (dataset.Placement, error) {
	return dataset.SplitZipf(rng, keys, p, 1.2)
}

// oneHeavy gives the first node 80% of the keys.
func oneHeavy(_ *rand.Rand, keys []uint64, p int) (dataset.Placement, error) {
	return dataset.SplitOneHeavy(keys, p, 0, 0.8)
}

// weighted splits the keys in the given proportions.
func weighted(weights ...float64) placement {
	return func(_ *rand.Rand, keys []uint64, _ int) (dataset.Placement, error) {
		return dataset.SplitWeighted(keys, weights)
	}
}

// namedPlacement is a data placement strategy for a sweep.
type namedPlacement struct {
	name  string
	place placement
}

// placementSuite is the placement sweep of Table 1; the last two draw their
// heavy node per relation.
func placementSuite(quick bool) []namedPlacement {
	out := []namedPlacement{{"uniform", uniform}, {"zipf-1.2", zipf}}
	if !quick {
		out = append(out,
			namedPlacement{"one-heavy-80", func(rng *rand.Rand, k []uint64, p int) (dataset.Placement, error) {
				return dataset.SplitOneHeavy(k, p, rng.Intn(p), 0.8)
			}},
			namedPlacement{"single-node", func(rng *rand.Rand, k []uint64, p int) (dataset.Placement, error) {
				return dataset.SplitSingle(k, p, rng.Intn(p))
			}},
		)
	}
	return out
}

// seeded is a generator for one cell or one experiment.
func seeded(seed uint64) *rand.Rand { return rand.New(rand.NewSource(int64(seed))) }

// placePair lays out the two relations of a pair task, R first.
func placePair(rng *rand.Rand, t *topology.Tree, r, s []uint64, placeR, placeS placement) (input, error) {
	pr, err := placeR(rng, r, t.NumCompute())
	if err != nil {
		return input{}, err
	}
	ps, err := placeS(rng, s, t.NumCompute())
	return input{r: pr, s: ps}, err
}

// setPair is an intersection input: two sets sharing overlap keys, placed.
func setPair(rng *rand.Rand, t *topology.Tree, sizeR, sizeS, overlap int, placeR, placeS placement) (input, error) {
	r, s, err := dataset.SetPair(rng, sizeR, sizeS, overlap)
	if err != nil {
		return input{}, err
	}
	return placePair(rng, t, r, s, placeR, placeS)
}

// distinctPair is a cartesian-product input: two relations of distinct keys,
// both placed the same way.
func distinctPair(rng *rand.Rand, t *topology.Tree, sizeR, sizeS int, place placement) (input, error) {
	r := dataset.Distinct(rng, sizeR)
	s := dataset.Distinct(rng, sizeS)
	return placePair(rng, t, r, s, place, place)
}

// distinctKeys is a sorting input: n distinct keys, placed.
func distinctKeys(rng *rand.Rand, t *topology.Tree, n int, place placement) (input, error) {
	data, err := place(rng, dataset.Distinct(rng, n), t.NumCompute())
	return input{r: data}, err
}

// groupRecords is a duplicate-heavy aggregation input: n records whose groups
// are drawn from a shared pool of n/8, placed, each a (group, 1) pair.
func groupRecords(rng *rand.Rand, t *topology.Tree, n int, place placement) (input, error) {
	pool := dataset.Distinct(rng, max(1, n/8))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = pool[rng.Intn(len(pool))]
	}
	data, err := place(rng, keys, t.NumCompute())
	records := make(aggregate.Placement, len(data))
	for i, frag := range data {
		for _, g := range frag {
			records[i] = append(records[i], aggregate.Pair{Group: g, Value: 1})
		}
	}
	return input{records: records}, err
}

// graphZoo generates the graph families of the connectivity experiments by
// the name their tables print: three low-diameter families and two
// high-diameter adversaries.
func graphZoo(cfg Config) (map[string][]uint64, error) {
	verts, gridSide := cfg.pick(600, 200), cfg.pick(24, 12)
	rng := seeded(cfg.Seed)
	families := []struct {
		name string
		gen  func() ([]uint64, error)
	}{
		{"G(n,p)", func() ([]uint64, error) { return dataset.GNP(rng, verts, 6/float64(verts)) }},
		{"power-law", func() ([]uint64, error) { return dataset.PowerLaw(rng, verts, 3*verts, 2) }},
		{"bridge-of-cliques", func() ([]uint64, error) { return dataset.BridgeOfCliques(4, cfg.pick(20, 10)) }},
		{"grid", func() ([]uint64, error) { return dataset.Grid(gridSide, gridSide) }},
		{"path", func() ([]uint64, error) { return dataset.Grid(1, gridSide*gridSide) }},
	}
	zoo := make(map[string][]uint64, len(families))
	for _, f := range families {
		packed, err := f.gen()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		zoo[f.name] = packed
	}
	return zoo, nil
}

// dealEdges is a connectivity input: a packed edge list, shuffled and dealt
// round-robin over the compute nodes.
func dealEdges(packed []uint64, seed uint64, t *topology.Tree) input {
	edges := append([]uint64(nil), packed...)
	dataset.Shuffle(seeded(seed+17), edges)
	pl := make(graph.Placement, t.NumCompute())
	for i, key := range edges {
		u, v := dataset.UnpackEdge(key)
		pl[i%len(pl)] = append(pl[i%len(pl)], graph.Edge{U: uint64(u), V: uint64(v)})
	}
	return input{edges: pl}
}
