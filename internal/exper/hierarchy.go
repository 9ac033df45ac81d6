package exper

import (
	"fmt"
	"math/rand"

	"topompc/internal/core/aggregate"
	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Hierarchy-depth experiment: how the recursive weak-cut hierarchy's
// depth translates into combining wins. Each topology of the zoo runs the
// same duplicate-heavy aggregation three ways — flat uniform hashing,
// the single-level combiner tree (CombinerBlocks, the hierarchy truncated
// to its deepest level), and the full multi-level combiner tree — so the
// two win columns separate what the flat decomposition buys from what the
// extra hierarchy levels buy. Single-band topologies (depth ≤ 1) must
// show multi/single parity; the deep-gradient shapes (tapered fat-tree,
// graded caterpillar, three-tier datacenter) are where the extra levels
// pay.

func init() {
	register(Experiment{
		ID:    "X7",
		Title: "Extension: recursive weak-cut hierarchy depth vs combining cost",
		Paper: "beyond the paper (place hierarchy; cf. in-network aggregation trees, Camdoop/CamCube)",
		Run:   runX7,
	})
}

func runX7(cfg Config) ([]Table, error) {
	twotier, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		return nil, err
	}
	cater, err := topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4)
	if err != nil {
		return nil, err
	}
	fattree, err := topology.FatTree(2, 3, 2, 3)
	if err != nil {
		return nil, err
	}
	star, err := topology.UniformStar(8, 2)
	if err != nil {
		return nil, err
	}
	taper, err := topology.FatTree(3, 2, 16, 0.25)
	if err != nil {
		return nil, err
	}
	grade, err := topology.Caterpillar([]float64{8, 3, 0.5, 3, 8}, 8)
	if err != nil {
		return nil, err
	}
	// Three-tier datacenter: graded rack uplinks under a graded spine,
	// the multi-tier cluster shape of the motivation.
	threeTier, err := topology.TwoTier([]int{3, 3, 3, 3}, []float64{12, 3, 12, 3}, 48)
	if err != nil {
		return nil, err
	}
	trees := []struct {
		name string
		tree *topology.Tree
	}{
		{"star", star}, {"fat-tree", fattree}, {"two-tier 16:1", twotier},
		{"caterpillar", cater}, {"three-tier 48:12:3", threeTier},
		{"fat-tree taper", taper}, {"caterpillar grade", grade},
	}

	n := 20000
	if cfg.Quick {
		n = 2000
	}

	table := Table{
		Title: "X7: hierarchy depth vs cost (multi-level vs single-level vs flat aggregation)",
		Note: "Groups drawn from a shared low-cardinality pool (heavy duplication). multi = " +
			"CombinerTree on the full weak-cut hierarchy (merge per block per level), single = " +
			"the CombinerBlocks truncation (one merge level), flat = uniform hashing. Depth ≤ 1 " +
			"topologies must show ~1.0 multi/single; the deep gradients pay the extra rounds " +
			"back on every tier's cut. Totals verified on every run.",
		Headers: []string{"topology", "depth", "cuts", "records", "multi cost", "single cost", "flat cost",
			"win multi/single", "win multi/flat", "CLB"},
	}

	rng := rand.New(rand.NewSource(int64(cfg.Seed) + 0x7))
	for _, tr := range trees {
		p := tr.tree.NumCompute()
		pool := dataset.Distinct(rng, max(1, n/8))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = pool[rng.Intn(len(pool))]
		}
		data, err := dataset.SplitUniform(keys, p)
		if err != nil {
			return nil, err
		}
		apl := make(aggregate.Placement, p)
		for i, frag := range data {
			for _, g := range frag {
				apl[i] = append(apl[i], aggregate.Pair{Group: g, Value: 1})
			}
		}

		depth := 0
		cuts := "-"
		if h := place.HierarchyFor(tr.tree); h != nil {
			depth = h.Depth()
			cuts = fmt.Sprintf("%.3g", h.Thresholds)
		}
		multi, err := aggregate.CombinerTree(tr.tree, apl, cfg.Seed)
		if err != nil {
			return nil, err
		}
		single, err := aggregate.CombinerTreeSingle(tr.tree, apl, cfg.Seed)
		if err != nil {
			return nil, err
		}
		flat, err := aggregate.HashFlat(tr.tree, apl, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ref := aggregate.Reference(apl)
		for variant, res := range map[string]*aggregate.Result{"multi": multi, "single": single, "flat": flat} {
			if err := aggregate.Verify(ref, res); err != nil {
				return nil, fmt.Errorf("X7 %s on %s: %w", variant, tr.name, err)
			}
		}
		clb := aggregate.LowerBound(tr.tree, apl)
		table.AddRow(tr.name, depth, cuts, n,
			multi.Report.TotalCost(), single.Report.TotalCost(), flat.Report.TotalCost(),
			netsim.Ratio(single.Report.TotalCost(), multi.Report.TotalCost()),
			netsim.Ratio(flat.Report.TotalCost(), multi.Report.TotalCost()),
			clb)
	}
	return []Table{table}, nil
}
