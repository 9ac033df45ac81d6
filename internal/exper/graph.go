package exper

import (
	"fmt"
	"math/rand"

	"topompc/internal/core/graph"
	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Graph-processing extension experiment: topology-aware connected
// components (capacity-weighted vertex homes + per-cut combining of label
// updates) against the flat baseline across the topology zoo × graph
// families. Beyond the paper, toward the MPC connectivity line (Andoni et
// al. 2018; Behnezhad et al. 2019); costs are measured against the per-cut
// information bound lowerbound.Spanning.

func init() {
	register(Experiment{
		ID:    "X5",
		Title: "Extension: connected components, aware vs flat label contraction",
		Paper: "beyond the paper (MPC connectivity: Andoni et al. 2018, Behnezhad et al. 2019)",
		Run:   runX5,
	})
}

func runX5(cfg Config) ([]Table, error) {
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
	trees := []struct {
		name string
		tree *topology.Tree
	}{
		{"two-tier 16:1", twotier}, {"caterpillar", cater}, {"fat-tree", fattree},
	}

	verts, cliqueSize, gridSide := 600, 20, 24
	if cfg.Quick {
		verts, cliqueSize, gridSide = 200, 10, 12
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	gnp, err := dataset.GNP(rng, verts, 6/float64(verts))
	if err != nil {
		return nil, err
	}
	plaw, err := dataset.PowerLaw(rng, verts, 3*verts, 2)
	if err != nil {
		return nil, err
	}
	grid, err := dataset.Grid(gridSide, gridSide)
	if err != nil {
		return nil, err
	}
	bridge, err := dataset.BridgeOfCliques(4, cliqueSize)
	if err != nil {
		return nil, err
	}
	families := []struct {
		name   string
		packed []uint64
	}{
		{"G(n,p)", gnp}, {"power-law", plaw}, {"grid", grid}, {"bridge-of-cliques", bridge},
	}

	table := Table{
		Title: "X5: connected components, aware vs flat label contraction",
		Note: "Aware: vertices homed by bandwidth capacity, label updates combined per weak cut; " +
			"flat: uniform homes, direct delivery. CLB = per-cut information bound " +
			"(lowerbound.Spanning); labelings verified against union-find on every run.",
		Headers: []string{"topology", "family", "V", "comps", "phases", "aware cost", "flat cost", "win", "CLB", "aware/CLB"},
	}
	for _, tr := range trees {
		p := tr.tree.NumCompute()
		for _, fam := range families {
			edges := append([]uint64(nil), fam.packed...)
			shuf := rand.New(rand.NewSource(int64(cfg.Seed) + 17))
			dataset.Shuffle(shuf, edges)
			pl := make(graph.Placement, p)
			for i, key := range edges {
				u, v := dataset.UnpackEdge(key)
				pl[i%p] = append(pl[i%p], graph.Edge{U: uint64(u), V: uint64(v)})
			}
			ref := graph.Reference(pl)
			aware, err := graph.CC(tr.tree, pl, cfg.Seed)
			if err != nil {
				return nil, err
			}
			flat, err := graph.CCFlat(tr.tree, pl, cfg.Seed)
			if err != nil {
				return nil, err
			}
			for variant, res := range map[string]*graph.Result{"aware": aware, "flat": flat} {
				if err := graph.Verify(ref, res); err != nil {
					return nil, fmt.Errorf("X5 %s on %s/%s: %w", variant, tr.name, fam.name, err)
				}
			}
			lb := lowerbound.Spanning(tr.tree, graph.ComponentSpread(tr.tree, pl))
			table.AddRow(tr.name, fam.name, len(ref.Labels), ref.Count, aware.Phases,
				aware.Report.TotalCost(), flat.Report.TotalCost(),
				netsim.Ratio(flat.Report.TotalCost(), aware.Report.TotalCost()),
				lb.Value, netsim.Ratio(aware.Report.TotalCost(), lb.Value))
		}
	}
	return []Table{table}, nil
}
