package exper

import (
	"fmt"
	"math/rand"

	"topompc/internal/core/cartesian"
	"topompc/internal/core/intersect"
	"topompc/internal/core/sorting"
	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// This file covers the unequal cartesian product (Appendix A.1), the
// topology-aware vs oblivious comparison motivating the paper, and the
// design ablations called out in DESIGN.md.

func init() {
	register(Experiment{
		ID:    "E9",
		Title: "Unequal cartesian product on a heterogeneous star",
		Paper: "§4.5 + Appendix A.1 (Algorithms 7-8)",
		Run:   runE9,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Topology-aware protocols vs topology-oblivious baselines",
		Paper: "§1 motivation (implicit comparison)",
		Run:   runE10,
	})
	register(Experiment{
		ID:    "A1",
		Title: "Ablation: weighted vs uniform hashing in TreeIntersect",
		Paper: "design choice of Algorithms 1-2",
		Run:   runA1,
	})
	register(Experiment{
		ID:    "A2",
		Title: "Ablation: balanced partition on vs off",
		Paper: "Algorithm 3 / Definition 1",
		Run:   runA2,
	})
	register(Experiment{
		ID:    "A3",
		Title: "Ablation: proportional vs uniform light-to-heavy routing in wTS",
		Paper: "third wTS generalization (§5.2)",
		Run:   runA3,
	})
	register(Experiment{
		ID:    "A4",
		Title: "Ablation: power-of-two rounding waste in wHC",
		Paper: "equation (1) / Lemma 5",
		Run:   runA4,
	})
}

func runE9(cfg Config) ([]Table, error) {
	star, err := topology.Star([]float64{1, 2, 4, 8, 16})
	if err != nil {
		return nil, err
	}
	table := Table{
		Title:   "E9: |R| sweep with |S| fixed on star with bandwidths 1,2,4,8,16",
		Note:    "CLB = unequal cut bound (§4.5); the generalized wHC picks columns, squares or gather.",
		Headers: []string{"|R|", "|S|", "strategy", "cost", "CLB", "ratio"},
	}
	sizeS := 8192
	ratios := []int{1, 4, 16, 64, 256}
	if cfg.Quick {
		sizeS = 1024
		ratios = []int{1, 16, 256}
	}
	p := star.NumCompute()
	for _, k := range ratios {
		sizeR := sizeS / k
		rng := rand.New(rand.NewSource(int64(cfg.Seed)))
		r := dataset.Distinct(rng, sizeR)
		s := dataset.Distinct(rng, sizeS)
		pr, _ := dataset.SplitUniform(r, p)
		ps, _ := dataset.SplitUniform(s, p)
		res, err := cartesian.Unequal(star, pr, ps)
		if err != nil {
			return nil, err
		}
		if err := cartesian.Verify(pr, ps, res); err != nil {
			return nil, fmt.Errorf("E9 |R|=%d: %w", sizeR, err)
		}
		lb := lowerbound.UnequalCartesianCut(star, loadsOf(star, pr, ps), int64(sizeR))
		table.AddRow(sizeR, sizeS, res.Strategy, res.Report.TotalCost(), lb.Value,
			netsim.Ratio(res.Report.TotalCost(), lb.Value))
	}
	return []Table{table}, nil
}

func runE10(cfg Config) ([]Table, error) {
	// A bottlenecked two-tier datacenter with skewed data: the setting the
	// introduction argues motivates topology-awareness.
	tree, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		return nil, err
	}
	p := tree.NumCompute()
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	table := Table{
		Title:   "E10: topology-aware vs oblivious on a two-tier tree with a 16:1 uplink gap",
		Note:    "Data is placed mostly under the fast uplink; 'win' is oblivious cost / aware cost.",
		Headers: []string{"task", "aware", "cost", "oblivious", "cost", "win"},
	}

	// Placement: 90% of data in rack 1 (fast uplink).
	heavyPlace := func(keys []uint64) (dataset.Placement, error) {
		w := make([]float64, p)
		for i := 0; i < 4; i++ {
			w[i] = 0.9 / 4
		}
		for i := 4; i < 8; i++ {
			w[i] = 0.1 / 4
		}
		return dataset.SplitWeighted(keys, w)
	}

	sizeR, sizeS := 1500, 6000
	if cfg.Quick {
		sizeR, sizeS = 400, 1600
	}
	r, s, err := dataset.SetPair(rng, sizeR, sizeS, sizeR/10)
	if err != nil {
		return nil, err
	}
	pr, err := heavyPlace(r)
	if err != nil {
		return nil, err
	}
	ps, err := heavyPlace(s)
	if err != nil {
		return nil, err
	}
	aware, err := intersect.Tree(tree, pr, ps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	oblivious, err := intersect.UniformHash(tree, pr, ps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	table.AddRow("intersection", "TreeIntersect", aware.Report.TotalCost(),
		"uniform hash join", oblivious.Report.TotalCost(),
		netsim.Ratio(oblivious.Report.TotalCost(), aware.Report.TotalCost()))

	half := 2048
	if cfg.Quick {
		half = 512
	}
	cr := dataset.Distinct(rng, half)
	cs := dataset.Distinct(rng, half)
	cpr, err := heavyPlace(cr)
	if err != nil {
		return nil, err
	}
	cps, err := heavyPlace(cs)
	if err != nil {
		return nil, err
	}
	cAware, err := cartesian.Tree(tree, cpr, cps)
	if err != nil {
		return nil, err
	}
	cObl, err := cartesian.UniformGrid(tree, cpr, cps)
	if err != nil {
		return nil, err
	}
	table.AddRow("cartesian", "tree wHC", cAware.Report.TotalCost(),
		"uniform HyperCube", cObl.Report.TotalCost(),
		netsim.Ratio(cObl.Report.TotalCost(), cAware.Report.TotalCost()))

	n := 4 * p * p * 64
	if cfg.Quick {
		n = 4 * p * p * 16
	}
	keys := dataset.Distinct(rng, n)
	data, err := heavyPlace(keys)
	if err != nil {
		return nil, err
	}
	sAware, err := sorting.WTS(tree, data, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sObl, err := sorting.TeraSort(tree, data, cfg.Seed)
	if err != nil {
		return nil, err
	}
	table.AddRow("sorting", "weighted TeraSort", sAware.Report.TotalCost(),
		"TeraSort", sObl.Report.TotalCost(),
		netsim.Ratio(sObl.Report.TotalCost(), sAware.Report.TotalCost()))

	return []Table{table}, nil
}

func runA1(cfg Config) ([]Table, error) {
	// One node holds 80% of S; weighted hashing keeps data near it while
	// uniform hashing drags everything across the star.
	star, err := topology.UniformStar(8, 1)
	if err != nil {
		return nil, err
	}
	p := star.NumCompute()
	table := Table{
		Title:   "A1: weighted (distribution-aware) vs uniform hashing, one-heavy placement",
		Headers: []string{"hashing", "cost", "CLB", "ratio"},
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	sizeR, sizeS := 1000, 9000
	if cfg.Quick {
		sizeR, sizeS = 200, 1800
	}
	r, s, err := dataset.SetPair(rng, sizeR, sizeS, sizeR/10)
	if err != nil {
		return nil, err
	}
	pr, _ := dataset.SplitUniform(r, p)
	ps, _ := dataset.SplitOneHeavy(s, p, 0, 0.8)

	lb := lowerbound.Intersection(star, loadsOf(star, pr, ps), int64(sizeR), int64(sizeS))
	weighted, err := intersect.Tree(star, pr, ps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	uniform, err := intersect.UniformHash(star, pr, ps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	table.AddRow("weighted (Alg 2)", weighted.Report.TotalCost(), lb.Value,
		netsim.Ratio(weighted.Report.TotalCost(), lb.Value))
	table.AddRow("uniform (MPC)", uniform.Report.TotalCost(), lb.Value,
		netsim.Ratio(uniform.Report.TotalCost(), lb.Value))
	return []Table{table}, nil
}

func runA2(cfg Config) ([]Table, error) {
	// Rack-heavy placement with β uplinks: the balanced partition keeps S
	// tuples inside their racks; the single-block variant hashes S across
	// racks.
	tree, err := topology.TwoTier([]int{4, 4, 4}, []float64{1, 1, 1}, 8)
	if err != nil {
		return nil, err
	}
	p := tree.NumCompute()
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	sizeR, sizeS := 500, 12000
	if cfg.Quick {
		sizeR, sizeS = 150, 3000
	}
	r, s, err := dataset.SetPair(rng, sizeR, sizeS, sizeR/10)
	if err != nil {
		return nil, err
	}
	pr, _ := dataset.SplitUniform(r, p)
	ps, _ := dataset.SplitUniform(s, p)
	lb := lowerbound.Intersection(tree, loadsOf(tree, pr, ps), int64(sizeR), int64(sizeS))

	with, err := intersect.Tree(tree, pr, ps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	without, err := intersect.TreeNoPartition(tree, pr, ps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	table := Table{
		Title:   "A2: balanced partition on vs off (three racks, weak uplinks)",
		Headers: []string{"variant", "blocks", "cost", "CLB", "ratio"},
	}
	table.AddRow("partition on", len(with.Blocks), with.Report.TotalCost(), lb.Value,
		netsim.Ratio(with.Report.TotalCost(), lb.Value))
	table.AddRow("partition off", len(without.Blocks), without.Report.TotalCost(), lb.Value,
		netsim.Ratio(without.Report.TotalCost(), lb.Value))
	return []Table{table}, nil
}

func runA3(cfg Config) ([]Table, error) {
	// Two heavy nodes of very different sizes (45% and 25%), the junior one
	// behind a 4× slower link; four genuinely light nodes (7.5% each, below
	// the N/2|VC| ≈ 8.3% threshold). Uniform light-routing pushes half the
	// light data through the slow link; proportional routing respects it.
	star, err := topology.Star([]float64{4, 1, 4, 4, 4, 4})
	if err != nil {
		return nil, err
	}
	p := star.NumCompute()
	n := 4 * p * p * 64
	if cfg.Quick {
		n = 4 * p * p * 16
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	keys := dataset.Distinct(rng, n)
	weights := []float64{0.45, 0.25, 0.075, 0.075, 0.075, 0.075}
	data, err := dataset.SplitWeighted(keys, weights)
	if err != nil {
		return nil, err
	}
	lb := lowerbound.Sorting(star, loadsOf(star, data))

	prop, err := sorting.WTS(star, data, cfg.Seed)
	if err != nil {
		return nil, err
	}
	unif, err := sorting.WTSWithOpts(star, data, cfg.Seed, sorting.Opts{UniformLight: true})
	if err != nil {
		return nil, err
	}
	table := Table{
		Title:   "A3: proportional vs uniform light→heavy routing (heavy nodes 45%/25%, slow junior link)",
		Headers: []string{"variant", "cost", "CLB", "ratio"},
	}
	table.AddRow("proportional (Alg 6)", prop.Report.TotalCost(), lb.Value,
		netsim.Ratio(prop.Report.TotalCost(), lb.Value))
	table.AddRow("uniform split", unif.Report.TotalCost(), lb.Value,
		netsim.Ratio(unif.Report.TotalCost(), lb.Value))
	return []Table{table}, nil
}

func runA4(cfg Config) ([]Table, error) {
	table := Table{
		Title:   "A4: weighted HyperCube vs uniform squares across bandwidth skews",
		Note:    "Bandwidths w_i = base^i; with skew the weighted squares follow the links while uniform squares overload the slowest link.",
		Headers: []string{"bandwidth base", "weighted cost", "uniform cost", "CLB", "weighted ratio", "uniform ratio"},
	}
	half := 2048
	if cfg.Quick {
		half = 512
	}
	for _, base := range []float64{1, 1.5, 2, 3} {
		bws := make([]float64, 6)
		w := 1.0
		for i := range bws {
			bws[i] = w
			w *= base
		}
		star, err := topology.Star(bws)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(cfg.Seed)))
		r := dataset.Distinct(rng, half)
		s := dataset.Distinct(rng, half)
		pr, _ := dataset.SplitUniform(r, star.NumCompute())
		ps, _ := dataset.SplitUniform(s, star.NumCompute())
		lb := lowerbound.Cartesian(star, loadsOf(star, pr, ps))

		weighted, err := cartesian.Star(star, pr, ps)
		if err != nil {
			return nil, err
		}
		uniform, err := cartesian.UniformGrid(star, pr, ps)
		if err != nil {
			return nil, err
		}
		table.AddRow(base, weighted.Report.TotalCost(), uniform.Report.TotalCost(), lb.Value,
			netsim.Ratio(weighted.Report.TotalCost(), lb.Value),
			netsim.Ratio(uniform.Report.TotalCost(), lb.Value))
	}
	return []Table{table}, nil
}
