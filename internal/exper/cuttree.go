package exper

import (
	"fmt"
	"math"

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

func runX8(cfg Config) ([]Table, error) {
	rng := seeded(cfg.Seed + 0x8)
	graphs := []struct {
		name  string
		build func() (*topology.Graph, error)
	}{
		{"mesh 3x4", func() (*topology.Graph, error) { return topology.Mesh(3, 4, 2.5) }},
		{"ring of racks 4x2", func() (*topology.Graph, error) { return topology.RingOfRacks(4, 2, 3, 8) }},
		{"clos 2x3", func() (*topology.Graph, error) { return topology.Clos(2, 3, 2, 4, 10) }},
		{"fanout p=12", func() (*topology.Graph, error) {
			return topology.RandomizedFanout(seeded(cfg.Seed+0x8), 12, 2, 0.5, 4)
		}},
	}
	n := cfg.pick(20000, 2000)
	table := newTable("X8: general networks through the Gomory–Hu cut tree (aggregation aware vs flat)",
		"Each graph is compressed to its equivalent-cut tree (FromGraph); the aggregation runs "+
			"on the tree. maxdev = max relative deviation of tree-path bottlenecks from exact pairwise "+
			"max-flows on the graph (Gomory–Hu property; ~0). CLB is the paper's cut lower bound on the "+
			"tree — also a lower bound for the graph, since every tree split is a true min cut. The "+
			"aware/flat win shows the placement levers carrying over to non-tree networks.",
		"graph", "nodes", "edges", "cut-tree maxdev", "records",
		"aware cost", "flat cost", "win flat/aware", "CLB", "cost/CLB")
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
					maxdev = max(maxdev, math.Abs(got-want)/want)
				}
			}
		}
		table.holds(maxdev <= 1e-9, "%s: cut tree deviates from true min cuts by %v", gf.name, maxdev)

		ms := table.each(gf.name, tree, cfg.Seed, func(int) (input, error) { return groupRecords(rng, tree, n, uniform) },
			aggTree2, aggAwareFlat)
		aware, flat := ms[0], ms[1]
		table.AddRow(gf.name, g.NumNodes(), g.NumEdges(), maxdev, n,
			aware.Cost, flat.Cost, ratio(flat.Cost, aware.Cost), aware.Bound, aware.Ratio())
	}
	return finish(table)
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
		minBW = min(minBW, t.Bandwidth(e))
		u = p
	}
	return minBW
}
