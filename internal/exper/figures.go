package exper

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"topompc/internal/core/cartesian"
	"topompc/internal/core/intersect"
	"topompc/internal/core/place"
	"topompc/internal/core/sorting"
	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// This file regenerates the constructions of Figures 1-5.

func init() {
	register(Experiment{
		ID:    "E4",
		Title: "All three tasks on the Figure 1 topologies",
		Paper: "Figure 1 (star and tree topologies)",
		Run:   runE4,
	})
	register(Experiment{
		ID:    "E5",
		Title: "Balanced partition structure",
		Paper: "Figure 2 / Definition 1 / Algorithm 3",
		Run:   runE5,
	})
	register(Experiment{
		ID:    "E6",
		Title: "G† orientation: compute-node root vs router root",
		Paper: "Figure 3 / Lemma 4",
		Run:   runE6,
	})
	register(Experiment{
		ID:    "E7",
		Title: "Power-of-two square packing coverage",
		Paper: "Figure 4 / Lemma 5",
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E8",
		Title: "Sorting under the adversarial rank-interleaved distribution",
		Paper: "Figure 5 / Theorem 6",
		Run:   runE8,
	})
}

func runE4(cfg Config) ([]Table, error) {
	table := Table{
		Title:   "E4: tasks on Figure 1a (star) and Figure 1b (tree)",
		Note:    "Unit bandwidths, uniform placement; ratio = cost / task lower bound.",
		Headers: []string{"topology", "task", "rounds", "cost", "CLB", "ratio"},
	}
	for _, nt := range []namedTopo{
		{"figure-1a", topology.Figure1a()},
		{"figure-1b", topology.Figure1b()},
	} {
		rng := rand.New(rand.NewSource(int64(cfg.Seed)))
		p := nt.tree.NumCompute()

		r, s, err := dataset.SetPair(rng, 600, 2400, 100)
		if err != nil {
			return nil, err
		}
		pr, _ := dataset.SplitUniform(r, p)
		ps, _ := dataset.SplitUniform(s, p)
		ires, err := intersect.Tree(nt.tree, pr, ps, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ilb := lowerbound.Intersection(nt.tree, loadsOf(nt.tree, pr, ps), 600, 2400)
		table.AddRow(nt.name, "intersection", ires.Report.NumRounds(), ires.Report.TotalCost(), ilb.Value,
			netsim.Ratio(ires.Report.TotalCost(), ilb.Value))

		cr := dataset.Distinct(rng, 900)
		cs := dataset.Distinct(rng, 900)
		cpr, _ := dataset.SplitUniform(cr, p)
		cps, _ := dataset.SplitUniform(cs, p)
		cres, err := cartesian.Tree(nt.tree, cpr, cps)
		if err != nil {
			return nil, err
		}
		clb := lowerbound.Cartesian(nt.tree, loadsOf(nt.tree, cpr, cps))
		table.AddRow(nt.name, "cartesian", cres.Report.NumRounds(), cres.Report.TotalCost(), clb.Value,
			netsim.Ratio(cres.Report.TotalCost(), clb.Value))

		keys := dataset.Distinct(rng, 4*p*p*32)
		data, _ := dataset.SplitUniform(keys, p)
		sres, err := sorting.WTS(nt.tree, data, cfg.Seed)
		if err != nil {
			return nil, err
		}
		slb := lowerbound.Sorting(nt.tree, loadsOf(nt.tree, data))
		table.AddRow(nt.name, "sorting", sres.Report.NumRounds(), sres.Report.TotalCost(), slb.Value,
			netsim.Ratio(sres.Report.TotalCost(), slb.Value))
	}
	return []Table{table}, nil
}

func runE5(cfg Config) ([]Table, error) {
	// A three-rack tree with rack-local α-regions and β uplinks, the shape
	// sketched in Figure 2.
	tree, err := topology.TwoTier([]int{3, 3, 3}, []float64{1, 1, 1}, 2)
	if err != nil {
		return nil, err
	}
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
	checkErr := place.CheckBalanced(tree, loads, sizeR, blocks)

	edges := Table{
		Title:   "E5a: α/β edge classification (|R| = 50, N_v = 40)",
		Note:    "β-edges have ≥ |R| data on both sides of their cut.",
		Headers: []string{"edge", "class", "cut min"},
	}
	cuts := tree.Cuts(loads)
	for e := topology.EdgeID(0); int(e) < tree.NumEdges(); e++ {
		a, b := tree.Endpoints(e)
		cls := "α"
		if classes[e] == place.Beta {
			cls = "β"
		}
		edges.AddRow(fmt.Sprintf("%s—%s", tree.Name(a), tree.Name(b)), cls, cuts[e].Min())
	}

	part := Table{
		Title:   "E5b: balanced partition blocks (Definition 1)",
		Note:    fmt.Sprintf("Definition 1 property check: %v", errString(checkErr)),
		Headers: []string{"block", "members", "Σ N_v"},
	}
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
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	trials := cfg.trials(200)
	if cfg.Quick {
		trials = 30
	}
	failures := 0
	for i := 0; i < trials; i++ {
		rt, err := topology.Random(rng, 2+rng.Intn(8), 1+rng.Intn(5), 1, 8)
		if err != nil {
			return nil, err
		}
		l := make(topology.Loads, rt.NumNodes())
		var total int64
		for _, v := range rt.ComputeNodes() {
			l[v] = int64(rng.Intn(500))
			total += l[v]
		}
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
	prop := Table{
		Title:   "E5c: Definition 1 property check over random instances",
		Headers: []string{"instances", "violations"},
	}
	prop.AddRow(trials, failures)
	return []Table{edges, part, prop}, nil
}

func runE6(cfg Config) ([]Table, error) {
	star, err := topology.UniformStar(4, 1)
	if err != nil {
		return nil, err
	}
	table := Table{
		Title:   "E6: G† roots under different load profiles",
		Note:    "Lemma 4: out-degree ≤ 1 everywhere and exactly one root.",
		Headers: []string{"case", "loads", "G† root", "root is compute", "Thm 4 applies"},
	}
	cases := []struct {
		name  string
		sizes []int64
	}{
		{"fig3-left (heavy node)", []int64{90, 5, 3, 2}},
		{"fig3-right (balanced)", []int64{25, 25, 25, 25}},
	}
	for _, c := range cases {
		loads, err := star.ComputeLoads(c.sizes)
		if err != nil {
			return nil, err
		}
		d := topology.Orient(star, loads)
		_, _, ok := d.MinCoverSumSq()
		table.AddRow(c.name, fmt.Sprintf("%v", c.sizes), star.Name(d.Root()), d.RootIsCompute(), ok)
	}

	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	trials := cfg.trials(300)
	if cfg.Quick {
		trials = 50
	}
	bad := 0
	for i := 0; i < trials; i++ {
		rt, err := topology.Random(rng, 2+rng.Intn(8), 1+rng.Intn(5), 0.5, 8)
		if err != nil {
			return nil, err
		}
		l := make(topology.Loads, rt.NumNodes())
		for _, v := range rt.ComputeNodes() {
			l[v] = int64(rng.Intn(100))
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
	prop := Table{
		Title:   "E6b: Lemma 4 validation over random trees and loads",
		Headers: []string{"instances", "violations"},
	}
	prop.AddRow(trials, bad)
	return []Table{table, prop}, nil
}

func runE7(cfg Config) ([]Table, error) {
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	table := Table{
		Title:   "E7: Lemma 5 packing coverage on random square multisets",
		Note:    "Lemma 5: the packing fully covers a square of side ≥ sqrt(Σd²)/2.",
		Headers: []string{"squares", "Σd²", "covered side", "bound sqrt(Σd²)/2", "margin"},
	}
	trials := cfg.trials(8)
	for i := 0; i < trials; i++ {
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
		table.AddRow(k, sumSq, covered, bound, float64(covered)/bound)
	}
	return []Table{table}, nil
}

func runE8(cfg Config) ([]Table, error) {
	table := Table{
		Title:   "E8: sorting cost under Figure 5's adversarial placement",
		Note:    "Rank-interleaved placement realizes the Theorem 6 bound; a pre-sorted contiguous placement is nearly free. CLB is identical for both (it depends only on sizes).",
		Headers: []string{"placement", "rounds", "cost", "CLB", "ratio"},
	}
	tree, err := topology.Caterpillar([]float64{1, 1, 1, 1, 1}, 2)
	if err != nil {
		return nil, err
	}
	p := tree.NumCompute()
	n := 4 * p * p * 64
	if cfg.Quick {
		n = 4 * p * p * 16
	}
	counts := make([]int, p)
	for i := range counts {
		counts[i] = n / p
	}
	counts[0] += n - (n/p)*p
	sorted := dataset.Sequential(n)

	adversarial, err := dataset.AdversarialSortPlacement(sorted, counts)
	if err != nil {
		return nil, err
	}
	contiguous, err := dataset.SplitCounts(sorted, counts)
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name string
		data dataset.Placement
	}{{"adversarial (Fig 5)", adversarial}, {"pre-sorted contiguous", contiguous}} {
		res, err := sorting.WTS(tree, c.data, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if err := sorting.Verify(tree, sorting.Reference(c.data), res); err != nil {
			return nil, fmt.Errorf("E8 %s: %w", c.name, err)
		}
		lb := lowerbound.Sorting(tree, loadsOf(tree, c.data))
		table.AddRow(c.name, res.Report.NumRounds(), res.Report.TotalCost(), lb.Value,
			netsim.Ratio(res.Report.TotalCost(), lb.Value))
	}
	return []Table{table}, nil
}

func errString(err error) string {
	if err == nil {
		return "all properties hold"
	}
	return err.Error()
}
