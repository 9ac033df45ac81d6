package exper

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"topompc/internal/core/cartesian"
	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/topology"
)

// This file regenerates the constructions of Figures 1-5.

func runE4(cfg Config) ([]Table, error) {
	table := newTable("E4: tasks on Figure 1a (star) and Figure 1b (tree)",
		"Unit bandwidths, uniform placement; ratio = cost / task lower bound.",
		"topology", "task", "rounds", "cost", "CLB", "ratio")
	for _, nt := range []namedTopo{{"figure-1a", topology.Figure1a()}, {"figure-1b", topology.Figure1b()}} {
		// One generator per topology, drawn from by the three tasks in turn;
		// each is held to its row of Table 1.
		rng := seeded(cfg.Seed)
		p := nt.tree.NumCompute()
		for _, c := range []cell{
			{name: "intersection", task: intersectTask, ceiling: intersectClaim(nt.tree, 3000), in: func(int) (input, error) {
				return setPair(rng, nt.tree, 600, 2400, 100, uniform, uniform)
			}},
			{name: "cartesian", task: cartesianTask, ceiling: cartesianClaim, in: func(int) (input, error) {
				return distinctPair(rng, nt.tree, 900, 900, uniform)
			}},
			{name: "sorting", task: sortTask, ceiling: sortingClaim, in: func(int) (input, error) {
				return distinctKeys(rng, nt.tree, 4*p*p*32, uniform)
			}},
		} {
			label := c.name
			c.name, c.tree, c.seed = nt.name+"/"+label, nt.tree, cfg.Seed
			m := table.run(c)
			table.AddRow(nt.name, label, m.Rounds, m.Cost, m.Bound, m.Ratio())
		}
	}
	return finish(table)
}

// randomLoaded draws a random tree of 2-9 compute nodes and 1-5 routers with
// bandwidths in [minBW, 8], and a load below maxLoad on every compute node.
func randomLoaded(rng *rand.Rand, minBW float64, maxLoad int) (*topology.Tree, topology.Loads, error) {
	t, err := topology.Random(rng, 2+rng.Intn(8), 1+rng.Intn(5), minBW, 8)
	if err != nil {
		return nil, nil, err
	}
	loads := make(topology.Loads, t.NumNodes())
	for _, v := range t.ComputeNodes() {
		loads[v] = int64(rng.Intn(maxLoad))
	}
	return t, loads, nil
}

func runE5(cfg Config) ([]Table, error) {
	// A three-rack tree with rack-local α-regions and β uplinks, the shape
	// sketched in Figure 2.
	tree := must(topology.TwoTier([]int{3, 3, 3}, []float64{1, 1, 1}, 2))
	loads := make(topology.Loads, tree.NumNodes())
	for _, v := range tree.ComputeNodes() {
		loads[v] = 40
	}
	sizeR := int64(50)
	classes := place.ClassifyEdges(tree, loads, sizeR)
	blocks, err := place.BalancedPartition(tree, loads, sizeR)
	if err != nil {
		return nil, err
	}

	edges := newTable("E5a: α/β edge classification (|R| = 50, N_v = 40)",
		"β-edges have ≥ |R| data on both sides of their cut.",
		"edge", "class", "cut min")
	cuts := tree.Cuts(loads)
	for e := topology.EdgeID(0); int(e) < tree.NumEdges(); e++ {
		a, b := tree.Endpoints(e)
		cls := "α"
		if classes[e] == place.Beta {
			cls = "β"
		}
		edges.AddRow(fmt.Sprintf("%s—%s", tree.Name(a), tree.Name(b)), cls, cuts[e].Min())
	}

	part := newTable("E5b: balanced partition blocks (Definition 1)",
		"Definition 1 property check: all properties hold",
		"block", "members", "Σ N_v")
	err = place.CheckBalanced(tree, loads, sizeR, blocks)
	part.holds(err == nil, "Figure 2 partition: %v", err)
	for i, b := range blocks {
		var names []string
		var w int64
		for _, v := range b {
			names = append(names, tree.Name(v))
			w += loads[v]
		}
		part.AddRow(i+1, strings.Join(names, " "), w)
	}

	// Property validation over random instances.
	rng := seeded(cfg.Seed)
	trials := cfg.pick(200, 30)
	failures := 0
	for i := 0; i < trials; i++ {
		rt, l, err := randomLoaded(rng, 1, 500)
		if err != nil {
			return nil, err
		}
		total := l.Total()
		if total == 0 {
			continue
		}
		sr := 1 + int64(rng.Intn(int(total)))
		bl, err := place.BalancedPartition(rt, l, sr)
		if err != nil {
			return nil, err
		}
		if place.CheckBalanced(rt, l, sr, bl) != nil {
			failures++
		}
	}
	prop := newTable("E5c: Definition 1 property check over random instances", "", "instances", "violations")
	prop.tally(trials, failures)
	return finish(edges, part, prop)
}

func runE6(cfg Config) ([]Table, error) {
	star := must(topology.UniformStar(4, 1))
	table := newTable("E6: G† roots under different load profiles",
		"Lemma 4: out-degree ≤ 1 everywhere and exactly one root.",
		"case", "loads", "G† root", "root is compute", "Thm 4 applies")
	for _, c := range []struct {
		name  string
		sizes []int64
	}{
		{"fig3-left (heavy node)", []int64{90, 5, 3, 2}},
		{"fig3-right (balanced)", []int64{25, 25, 25, 25}},
	} {
		loads, err := star.ComputeLoads(c.sizes)
		if err != nil {
			return nil, err
		}
		d := topology.Orient(star, loads)
		_, _, ok := d.MinCoverSumSq()
		table.AddRow(c.name, fmt.Sprintf("%v", c.sizes), star.Name(d.Root()), d.RootIsCompute(), ok)
	}

	rng := seeded(cfg.Seed)
	trials := cfg.pick(300, 50)
	bad := 0
	for i := 0; i < trials; i++ {
		rt, l, err := randomLoaded(rng, 0.5, 100)
		if err != nil {
			return nil, err
		}
		d := topology.Orient(rt, l)
		roots := 0
		for v := topology.NodeID(0); int(v) < rt.NumNodes(); v++ {
			if d.OutEdge(v) == topology.NoEdge {
				roots++
			}
		}
		if roots != 1 {
			bad++
		}
	}
	prop := newTable("E6b: Lemma 4 validation over random trees and loads", "", "instances", "violations")
	prop.tally(trials, bad)
	return finish(table, prop)
}

func runE7(cfg Config) ([]Table, error) {
	rng := seeded(cfg.Seed)
	table := newTable("E7: Lemma 5 packing coverage on random square multisets",
		"Lemma 5: the packing fully covers a square of side ≥ sqrt(Σd²)/2.",
		"squares", "Σd²", "covered side", "bound sqrt(Σd²)/2", "margin")
	for i := 0; i < cfg.pick(8, 1); i++ {
		k := 2 + rng.Intn(14)
		sides := make([]int64, k)
		owners := make([]topology.NodeID, k)
		var sumSq float64
		for j := range sides {
			sides[j] = int64(1) << uint(rng.Intn(9))
			owners[j] = topology.NodeID(j)
			sumSq += float64(sides[j] * sides[j])
		}
		_, covered, err := cartesian.PackLemma5(sides, owners)
		if err != nil {
			return nil, err
		}
		bound := math.Sqrt(sumSq) / 2
		table.holds(float64(covered) >= bound, "multiset %d: covered side %d, Lemma 5 bound %.1f", i+1, covered, bound)
		table.AddRow(k, sumSq, covered, bound, float64(covered)/bound)
	}
	return finish(table)
}

func runE8(cfg Config) ([]Table, error) {
	table := newTable("E8: sorting cost under Figure 5's adversarial placement",
		"Rank-interleaved placement realizes the Theorem 6 bound; a pre-sorted contiguous placement is nearly free. CLB is identical for both (it depends only on sizes).",
		"placement", "rounds", "cost", "CLB", "ratio")
	// Four rounds, and within O(1) of Theorem 6 on the instance that realizes
	// it: 1.06 recorded, up to 1.20 on the -quick input.
	table.Ceiling = Ceiling{Rounds: 4, Ratio: 1.5}
	tree := must(topology.Caterpillar([]float64{1, 1, 1, 1, 1}, 2))
	p := tree.NumCompute()
	n := 4 * p * p * cfg.pick(64, 16)
	counts := make([]int, p)
	for i := range counts {
		counts[i] = n / p
	}
	counts[0] += n - (n/p)*p
	sorted := dataset.Sequential(n)

	row := func(name string, split func([]uint64, []int) (dataset.Placement, error), ceiling Ceiling) measure {
		m := table.run(cell{name: name, tree: tree, task: sortTask, seed: cfg.Seed, ceiling: ceiling, in: func(int) (input, error) {
			data, err := split(sorted, counts)
			return input{r: data}, err
		}})
		table.AddRow(name, m.Rounds, m.Cost, m.Bound, m.Ratio())
		return m
	}
	adversarial := row("adversarial (Fig 5)", dataset.AdversarialSortPlacement, Ceiling{})
	// "Nearly free": at most half of what the adversarial placement cost
	// (0.14 of it recorded, up to 0.28 on the -quick input over seeds 1-25).
	row("pre-sorted contiguous", dataset.SplitCounts, Ceiling{Cost: adversarial.Cost / 2})
	return finish(table)
}
