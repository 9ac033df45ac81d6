package exper

import (
	"fmt"
	"math/rand"

	"topompc/internal/core/multijoin"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Multiway-join extension experiments: the HyperCube-on-a-tree shuffle
// (internal/core/multijoin) against flat HyperCube across the standard
// topology zoo. Like X1/X2 these are beyond the paper; costs are measured
// against the tuple-transfer cut bound lowerbound.Multijoin.

func init() {
	register(Experiment{
		ID:    "X3",
		Title: "Extension: triangle join, HyperCube-on-a-tree vs flat HyperCube",
		Paper: "beyond the paper (HyperCube shares; Afrati–Ullman, Beame–Koutris–Suciu)",
		Run:   runX3,
	})
	register(Experiment{
		ID:    "X4",
		Title: "Extension: k-way star join, capacity-weighted vs uniform hashing",
		Paper: "beyond the paper (weighted-MPC line, Ma & Li 2023)",
		Run:   runX4,
	})
}

// multijoinTopologies is the topology zoo shared by X3 and X4.
func multijoinTopologies() (map[string]*topology.Tree, []string, error) {
	star, err := topology.UniformStar(8, 2)
	if err != nil {
		return nil, nil, err
	}
	twotier, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		return nil, nil, err
	}
	fattree, err := topology.FatTree(2, 3, 2, 3)
	if err != nil {
		return nil, nil, err
	}
	cater, err := topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4)
	if err != nil {
		return nil, nil, err
	}
	trees := map[string]*topology.Tree{
		"star": star, "two-tier 16:1": twotier, "fat-tree": fattree, "caterpillar": cater,
	}
	return trees, []string{"star", "two-tier 16:1", "fat-tree", "caterpillar"}, nil
}

func runX3(cfg Config) ([]Table, error) {
	trees, order, err := multijoinTopologies()
	if err != nil {
		return nil, err
	}
	m, dom := 900, 30
	if cfg.Quick {
		m, dom = 250, 16
	}
	table := Table{
		Title: "X3: triangle join R(a,b)⋈S(b,c)⋈T(c,a), aware vs flat shares",
		Note: "Shares g_a×g_b×g_c ≤ p; aware apportions grid cells by subtree bandwidth capacity. " +
			"CLB = tuple-transfer cut bound (lowerbound.Multijoin); outputs verified against the reference join.",
		Headers: []string{"topology", "triangles", "aware cost", "flat cost", "win", "CLB", "aware/CLB"},
	}
	for _, name := range order {
		tree := trees[name]
		p := tree.NumCompute()
		rng := rand.New(rand.NewSource(int64(cfg.Seed)))
		gen := func() multijoin.Placement {
			pl := make(multijoin.Placement, p)
			for i := 0; i < m; i++ {
				n := rng.Intn(p)
				pl[n] = append(pl[n], multijoin.Tuple{A: uint64(rng.Intn(dom)), B: uint64(rng.Intn(dom))})
			}
			return pl
		}
		r, s, tt := gen(), gen(), gen()
		ix := multijoin.IndexTriangle(r, s, tt)
		ref := ix.Reference()
		aware, err := multijoin.Triangle(tree, r, s, tt, cfg.Seed)
		if err != nil {
			return nil, err
		}
		flat, err := multijoin.TriangleFlat(tree, r, s, tt, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for variant, res := range map[string]*multijoin.Result{"aware": aware, "flat": flat} {
			if err := multijoin.Verify(ref, res); err != nil {
				return nil, fmt.Errorf("X3 %s on %s: %w", variant, name, err)
			}
		}
		lb := lowerbound.Multijoin(tree, ref.Count, ref.MaxDeg, ix.CutCounts(tree))
		table.AddRow(name, ref.Count,
			aware.Report.TotalCost(), flat.Report.TotalCost(),
			netsim.Ratio(flat.Report.TotalCost(), aware.Report.TotalCost()),
			lb.Value, netsim.Ratio(aware.Report.TotalCost(), lb.Value))
	}
	return []Table{table}, nil
}

func runX4(cfg Config) ([]Table, error) {
	trees, order, err := multijoinTopologies()
	if err != nil {
		return nil, err
	}
	k, m := 4, 1200
	if cfg.Quick {
		m = 300
	}
	table := Table{
		Title: "X4: 4-way star join on the shared attribute, aware vs uniform hashing",
		Note: "Join values hashed to nodes with probability ∝ bandwidth capacity (aware) or uniformly (flat); " +
			"data ~75% concentrated on the best-connected half of each topology. Outputs verified against the reference join.",
		Headers: []string{"topology", "rows", "aware cost", "flat cost", "win", "CLB", "aware/CLB"},
	}
	for _, name := range order {
		tree := trees[name]
		p := tree.NumCompute()
		dom := m / 4
		rng := rand.New(rand.NewSource(int64(cfg.Seed) + 1))
		// Skewed placement: three quarters of each relation lands on the
		// first half of the compute nodes (the fast rack of the two-tier,
		// the strong spine end of the caterpillar).
		rels := make([]multijoin.Placement, k)
		for j := range rels {
			rels[j] = make(multijoin.Placement, p)
			for i := 0; i < m; i++ {
				var n int
				if rng.Intn(4) == 0 {
					n = rng.Intn(p)
				} else {
					n = rng.Intn((p + 1) / 2)
				}
				rels[j][n] = append(rels[j][n], multijoin.Tuple{A: uint64(rng.Intn(dom)), B: rng.Uint64()})
			}
		}
		ix := multijoin.IndexStar(rels)
		ref := ix.Reference()
		aware, err := multijoin.Star(tree, rels, cfg.Seed)
		if err != nil {
			return nil, err
		}
		flat, err := multijoin.StarFlat(tree, rels, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for variant, res := range map[string]*multijoin.Result{"aware": aware, "flat": flat} {
			if err := multijoin.Verify(ref, res); err != nil {
				return nil, fmt.Errorf("X4 %s on %s: %w", variant, name, err)
			}
		}
		lb := lowerbound.Multijoin(tree, ref.Count, ref.MaxDeg, ix.CutCounts(tree))
		table.AddRow(name, ref.Count,
			aware.Report.TotalCost(), flat.Report.TotalCost(),
			netsim.Ratio(flat.Report.TotalCost(), aware.Report.TotalCost()),
			lb.Value, netsim.Ratio(aware.Report.TotalCost(), lb.Value))
	}
	return []Table{table}, nil
}
