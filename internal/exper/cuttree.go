package exper

import (
	"fmt"
	"math"
	"math/rand"

	"topompc/internal/core/aggregate"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Cut-tree front-end experiment: how faithfully the Gomory–Hu
// compression (topology.FromGraph) models general networks. Each graph
// fixture of the zoo — mesh, ring of racks, Clos fabric, randomized
// fanout overlay — is compressed to its equivalent-cut tree, a
// duplicate-heavy aggregation runs on that tree aware and flat, and two
// faithfulness columns anchor the model to the real network: the maximum
// relative deviation between tree-path bottlenecks and true pairwise
// min cuts (exact max-flows on the graph; must be ~0 by the Gomory–Hu
// property), and the paper's cut lower bound evaluated on the tree —
// valid for the graph itself, because every tree-edge split is a true
// minimum cut of the graph.

func init() {
	register(Experiment{
		ID:    "X8",
		Title: "Extension: Gomory–Hu cut-tree front-end for general networks",
		Paper: "beyond the paper (Gomory–Hu 1961; Gusfield 1990 simplification)",
		Run:   runX8,
	})
}

func runX8(cfg Config) ([]Table, error) {
	rng := rand.New(rand.NewSource(int64(cfg.Seed) + 0x8))
	graphs := []struct {
		name  string
		build func() (*topology.Graph, error)
	}{
		{"mesh 3x4", func() (*topology.Graph, error) { return topology.Mesh(3, 4, 2.5) }},
		{"ring of racks 4x2", func() (*topology.Graph, error) { return topology.RingOfRacks(4, 2, 3, 8) }},
		{"clos 2x3", func() (*topology.Graph, error) { return topology.Clos(2, 3, 2, 4, 10) }},
		{"fanout p=12", func() (*topology.Graph, error) {
			return topology.RandomizedFanout(rand.New(rand.NewSource(int64(cfg.Seed)+0x8)), 12, 2, 0.5, 4)
		}},
	}

	n := 20000
	if cfg.Quick {
		n = 2000
	}

	table := Table{
		Title: "X8: general networks through the Gomory–Hu cut tree (aggregation aware vs flat)",
		Note: "Each graph is compressed to its equivalent-cut tree (FromGraph); the aggregation runs " +
			"on the tree. maxdev = max relative deviation of tree-path bottlenecks from exact pairwise " +
			"max-flows on the graph (Gomory–Hu property; ~0). CLB is the paper's cut lower bound on the " +
			"tree — also a lower bound for the graph, since every tree split is a true min cut. The " +
			"aware/flat win shows the placement levers carrying over to non-tree networks.",
		Headers: []string{"graph", "nodes", "edges", "cut-tree maxdev", "records",
			"aware cost", "flat cost", "win flat/aware", "CLB", "cost/CLB"},
	}

	for _, gf := range graphs {
		g, err := gf.build()
		if err != nil {
			return nil, err
		}
		tree, err := topology.FromGraph(g)
		if err != nil {
			return nil, fmt.Errorf("X8 %s: %w", gf.name, err)
		}

		// Faithfulness: tree-path bottleneck vs exact max-flow on every
		// node pair (the fixtures are small enough for all pairs).
		maxdev := 0.0
		for u := 0; u < g.NumNodes(); u++ {
			for v := u + 1; v < g.NumNodes(); v++ {
				want := g.MaxFlow(topology.NodeID(u), topology.NodeID(v))
				got := treeBottleneck(tree, topology.NodeID(u), topology.NodeID(v))
				if want > 0 {
					if dev := math.Abs(got-want) / want; dev > maxdev {
						maxdev = dev
					}
				}
			}
		}
		if maxdev > 1e-9 {
			return nil, fmt.Errorf("X8 %s: cut tree deviates from true min cuts by %v", gf.name, maxdev)
		}

		p := tree.NumCompute()
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
			for _, grp := range frag {
				apl[i] = append(apl[i], aggregate.Pair{Group: grp, Value: 1})
			}
		}

		aware, err := aggregate.CombinerTree(tree, apl, cfg.Seed)
		if err != nil {
			return nil, err
		}
		flat, err := aggregate.HashFlat(tree, apl, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ref := aggregate.Reference(apl)
		for variant, res := range map[string]*aggregate.Result{"aware": aware, "flat": flat} {
			if err := aggregate.Verify(ref, res); err != nil {
				return nil, fmt.Errorf("X8 %s on %s: %w", variant, gf.name, err)
			}
		}
		clb := aggregate.LowerBound(tree, apl)
		table.AddRow(gf.name, g.NumNodes(), g.NumEdges(), maxdev, n,
			aware.Report.TotalCost(), flat.Report.TotalCost(),
			netsim.Ratio(flat.Report.TotalCost(), aware.Report.TotalCost()),
			clb, netsim.Ratio(aware.Report.TotalCost(), clb))
	}
	return []Table{table}, nil
}

// treeBottleneck reports the minimum edge bandwidth on the tree path
// between u and v — on a Gomory–Hu tree, the pair's min-cut capacity.
func treeBottleneck(t *topology.Tree, u, v topology.NodeID) float64 {
	minBW := math.Inf(1)
	for u != v {
		if t.Depth(u) < t.Depth(v) {
			u, v = v, u
		}
		p, e := t.Parent(u)
		if w := t.Bandwidth(e); w < minBW {
			minBW = w
		}
		u = p
	}
	return minBW
}
