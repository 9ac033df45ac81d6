package exper

import (
	"fmt"
	"math/rand"

	"topompc/internal/core/graph"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Round-count extension experiment: budgeted graph exponentiation
// (cc-fast) against the Borůvka schedule (cc) across the topology zoo ×
// graph families. The low-diameter families (G(n,p), power-law,
// bridge-of-cliques) are where doubling collapses the phase count; the
// path and grid adversaries are high-diameter inputs where truncated
// exponentiation must fall back gracefully and never regress past the
// Borůvka round count by more than its one-round entry overhead.

func init() {
	register(Experiment{
		ID:    "X9",
		Title: "Extension: cc-fast graph exponentiation vs Borůvka rounds",
		Paper: "beyond the paper (truncated neighborhood exponentiation: Andoni et al. 2018, Behnezhad et al. 2019)",
		Run:   runX9,
	})
}

func runX9(cfg Config) ([]Table, error) {
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

	verts, cliqueSize, gridSide, pathLen := 600, 20, 24, 576
	if cfg.Quick {
		verts, cliqueSize, gridSide, pathLen = 200, 10, 12, 144
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
	bridge, err := dataset.BridgeOfCliques(4, cliqueSize)
	if err != nil {
		return nil, err
	}
	grid, err := dataset.Grid(gridSide, gridSide)
	if err != nil {
		return nil, err
	}
	path, err := dataset.Grid(1, pathLen)
	if err != nil {
		return nil, err
	}
	families := []struct {
		name   string
		packed []uint64
		// adversary marks the high-diameter inputs where exponentiation
		// is allowed its one-round fallback overhead but no more.
		adversary bool
	}{
		{"G(n,p)", gnp, false}, {"power-law", plaw, false},
		{"bridge-of-cliques", bridge, false},
		{"grid", grid, true}, {"path", path, true},
	}

	table := Table{
		Title: "X9: cc-fast graph exponentiation vs Borůvka rounds",
		Note: "Both protocols use capacity homes + per-cut combining; cc hooks one hop per phase " +
			"(Borůvka), cc-fast learns budgeted multi-hop neighborhoods by doubling before hooking. " +
			"Rounds are engine exchange rounds; win = cc/cc-fast. On the high-diameter adversaries " +
			"(grid, path) cc-fast may pay at most one extra round over cc; labelings verified " +
			"against union-find on every run.",
		Headers: []string{"topology", "family", "V", "comps",
			"cc phases", "cc rounds", "cc cost",
			"fast phases", "fast rounds", "fast cost",
			"round win", "cost win"},
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
			slow, err := graph.CC(tr.tree, pl, cfg.Seed)
			if err != nil {
				return nil, err
			}
			fast, err := graph.CCFast(tr.tree, pl, cfg.Seed)
			if err != nil {
				return nil, err
			}
			for variant, res := range map[string]*graph.Result{"cc": slow, "cc-fast": fast} {
				if err := graph.Verify(ref, res); err != nil {
					return nil, fmt.Errorf("X9 %s on %s/%s: %w", variant, tr.name, fam.name, err)
				}
			}
			slowRounds := slow.Report.NumRounds()
			fastRounds := fast.Report.NumRounds()
			limit := slowRounds
			if fam.adversary {
				limit++
			}
			if fastRounds > limit {
				return nil, fmt.Errorf("X9 on %s/%s: cc-fast took %d rounds, cc %d (limit %d)",
					tr.name, fam.name, fastRounds, slowRounds, limit)
			}
			table.AddRow(tr.name, fam.name, len(ref.Labels), ref.Count,
				slow.Phases, slowRounds, slow.Report.TotalCost(),
				fast.Phases, fastRounds, fast.Report.TotalCost(),
				netsim.Ratio(float64(slowRounds), float64(fastRounds)),
				netsim.Ratio(slow.Report.TotalCost(), fast.Report.TotalCost()))
		}
	}
	return []Table{table}, nil
}
