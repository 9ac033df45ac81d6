package exper

import (
	"fmt"
	"math"
	"math/rand"

	"topompc/internal/core/cartesian"
	"topompc/internal/core/intersect"
	"topompc/internal/core/sorting"
	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// This file regenerates Table 1: for each task, the round count and the
// measured cost / lower-bound ratio across topologies, placements and input
// sizes, checked against the claimed optimality envelopes.

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Set intersection: rounds and cost vs Theorem 1 lower bound",
		Paper: "Table 1, row 1 (1 round, O(log|V|·logN) w.h.p.)",
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Cartesian product: rounds and cost vs Theorems 3+4 lower bound",
		Paper: "Table 1, row 2 (1 round, O(1) deterministic)",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E3",
		Title: "Sorting: rounds and cost vs Theorem 6 lower bound",
		Paper: "Table 1, row 3 (O(1) rounds, O(1) w.h.p.)",
		Run:   runE3,
	})
}

func runE1(cfg Config) ([]Table, error) {
	topos, err := topoSuite(cfg.Quick)
	if err != nil {
		return nil, err
	}
	places := placementSuite(cfg.Quick)
	sweep := Table{
		Title:   "E1a: TreeIntersect across topologies and placements",
		Note:    "N = |R|+|S|; ratio = measured cost / CLB (Theorem 1); envelope = log2|V|·log2 N.",
		Headers: []string{"topology", "placement", "|V|", "N", "rounds", "cost", "CLB", "ratio", "envelope"},
	}
	trials := cfg.trials(3)
	sizeR, sizeS := 2000, 8000
	if cfg.Quick {
		sizeR, sizeS = 300, 1200
	}
	for _, nt := range topos {
		for _, np := range places {
			var worst float64
			var lastCost, lastLB float64
			rounds := 0
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(trial)*7))
				r, s, err := dataset.SetPair(rng, sizeR, sizeS, sizeR/5)
				if err != nil {
					return nil, err
				}
				p := nt.tree.NumCompute()
				pr, err := np.place(rng, r, p)
				if err != nil {
					return nil, err
				}
				ps, err := np.place(rng, s, p)
				if err != nil {
					return nil, err
				}
				res, err := intersect.Tree(nt.tree, pr, ps, cfg.Seed+uint64(trial))
				if err != nil {
					return nil, err
				}
				if err := intersect.Verify(intersect.Reference(pr, ps), res); err != nil {
					return nil, fmt.Errorf("E1 %s/%s: %w", nt.name, np.name, err)
				}
				lb := lowerbound.Intersection(nt.tree, loadsOf(nt.tree, pr, ps), int64(sizeR), int64(sizeS))
				ratio := netsim.Ratio(res.Report.TotalCost(), lb.Value)
				if ratio > worst {
					worst, lastCost, lastLB = ratio, res.Report.TotalCost(), lb.Value
				}
				rounds = res.Report.NumRounds()
			}
			n := sizeR + sizeS
			env := math.Log2(float64(nt.tree.NumNodes())) * math.Log2(float64(n))
			sweep.AddRow(nt.name, np.name, nt.tree.NumNodes(), n, rounds, lastCost, lastLB, worst, env)
		}
	}

	growth := Table{
		Title:   "E1b: ratio growth with N (two-tier, zipf placement)",
		Note:    "The w.h.p. guarantee allows O(log|V|·logN); the measured ratio should grow at most logarithmically.",
		Headers: []string{"N", "cost", "CLB", "ratio"},
	}
	tt, err := topology.TwoTier([]int{4, 4, 4}, []float64{4, 2, 1}, 8)
	if err != nil {
		return nil, err
	}
	sizes := []int{1000, 4000, 16000, 64000}
	if cfg.Quick {
		sizes = []int{500, 2000}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(cfg.Seed)))
		r, s, err := dataset.SetPair(rng, n/4, 3*n/4, n/20)
		if err != nil {
			return nil, err
		}
		pr, _ := dataset.SplitZipf(rng, r, tt.NumCompute(), 1.2)
		ps, _ := dataset.SplitZipf(rng, s, tt.NumCompute(), 1.2)
		res, err := intersect.Tree(tt, pr, ps, cfg.Seed)
		if err != nil {
			return nil, err
		}
		lb := lowerbound.Intersection(tt, loadsOf(tt, pr, ps), int64(n/4), int64(3*n/4))
		growth.AddRow(n, res.Report.TotalCost(), lb.Value, netsim.Ratio(res.Report.TotalCost(), lb.Value))
	}

	vGrowth := Table{
		Title:   "E1c: ratio growth with |V| (uniform stars, N fixed)",
		Note:    "The log|V| factor comes from the union bound over links; the measured ratio should stay far below it.",
		Headers: []string{"|V|", "cost", "CLB", "ratio", "log2|V|"},
	}
	vSizes := []int{2, 4, 8, 16, 32, 64}
	if cfg.Quick {
		vSizes = []int{4, 16}
	}
	for _, p := range vSizes {
		star, err := topology.UniformStar(p, 1)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(cfg.Seed)))
		n := 16000
		if cfg.Quick {
			n = 2000
		}
		r, s, err := dataset.SetPair(rng, n/4, 3*n/4, n/20)
		if err != nil {
			return nil, err
		}
		pr, _ := dataset.SplitUniform(r, p)
		ps, _ := dataset.SplitUniform(s, p)
		res, err := intersect.Tree(star, pr, ps, cfg.Seed)
		if err != nil {
			return nil, err
		}
		lb := lowerbound.Intersection(star, loadsOf(star, pr, ps), int64(n/4), int64(3*n/4))
		vGrowth.AddRow(p+1, res.Report.TotalCost(), lb.Value,
			netsim.Ratio(res.Report.TotalCost(), lb.Value), math.Log2(float64(p+1)))
	}
	return []Table{sweep, growth, vGrowth}, nil
}

func runE2(cfg Config) ([]Table, error) {
	topos, err := topoSuite(cfg.Quick)
	if err != nil {
		return nil, err
	}
	places := placementSuite(cfg.Quick)
	sweep := Table{
		Title:   "E2a: tree cartesian product across topologies and placements",
		Note:    "CLB = max(Theorem 3 cut bound, Theorem 4 cover bound); the guarantee is an O(1) ratio.",
		Headers: []string{"topology", "placement", "strategy", "rounds", "cost", "CLB", "ratio"},
	}
	half := 2048
	if cfg.Quick {
		half = 256
	}
	for _, nt := range topos {
		for _, np := range places {
			rng := rand.New(rand.NewSource(int64(cfg.Seed)))
			p := nt.tree.NumCompute()
			r := dataset.Distinct(rng, half)
			s := dataset.Distinct(rng, half)
			pr, err := np.place(rng, r, p)
			if err != nil {
				return nil, err
			}
			ps, err := np.place(rng, s, p)
			if err != nil {
				return nil, err
			}
			res, err := cartesian.Tree(nt.tree, pr, ps)
			if err != nil {
				return nil, err
			}
			if err := cartesian.Verify(pr, ps, res); err != nil {
				return nil, fmt.Errorf("E2 %s/%s: %w", nt.name, np.name, err)
			}
			lb := lowerbound.Cartesian(nt.tree, loadsOf(nt.tree, pr, ps))
			ratio := netsim.Ratio(res.Report.TotalCost(), lb.Value)
			sweep.AddRow(nt.name, np.name, res.Strategy, res.Report.NumRounds(), res.Report.TotalCost(), lb.Value, ratio)
		}
	}

	growth := Table{
		Title:   "E2b: ratio stability with N (heterogeneous star)",
		Note:    "Lemma 7/Theorem 5 claim a constant ratio independent of N.",
		Headers: []string{"N", "cost", "CLB", "ratio"},
	}
	hstar, err := topology.Star([]float64{1, 2, 4, 8, 16, 32})
	if err != nil {
		return nil, err
	}
	halves := []int{512, 2048, 8192, 32768}
	if cfg.Quick {
		halves = []int{256, 1024}
	}
	for _, h := range halves {
		rng := rand.New(rand.NewSource(int64(cfg.Seed)))
		r := dataset.Distinct(rng, h)
		s := dataset.Distinct(rng, h)
		pr, _ := dataset.SplitUniform(r, hstar.NumCompute())
		ps, _ := dataset.SplitUniform(s, hstar.NumCompute())
		res, err := cartesian.Star(hstar, pr, ps)
		if err != nil {
			return nil, err
		}
		lb := lowerbound.Cartesian(hstar, loadsOf(hstar, pr, ps))
		growth.AddRow(2*h, res.Report.TotalCost(), lb.Value, netsim.Ratio(res.Report.TotalCost(), lb.Value))
	}
	return []Table{sweep, growth}, nil
}

func runE3(cfg Config) ([]Table, error) {
	topos, err := topoSuite(cfg.Quick)
	if err != nil {
		return nil, err
	}
	places := placementSuite(cfg.Quick)
	sweep := Table{
		Title:   "E3a: weighted TeraSort across topologies and placements",
		Note:    "CLB = Theorem 6; Theorem 7 claims ≤ 4 rounds and an O(1) ratio w.h.p. in the regime N ≥ 4|VC|²ln(|VC|N).",
		Headers: []string{"topology", "placement", "strategy", "rounds", "cost", "CLB", "ratio"},
	}
	for _, nt := range topos {
		p := nt.tree.NumCompute()
		n := 4 * p * p * 64
		if cfg.Quick {
			n = 4 * p * p * 16
		}
		for _, np := range places {
			rng := rand.New(rand.NewSource(int64(cfg.Seed)))
			keys := dataset.Distinct(rng, n)
			data, err := np.place(rng, keys, p)
			if err != nil {
				return nil, err
			}
			res, err := sorting.WTS(nt.tree, data, cfg.Seed)
			if err != nil {
				return nil, err
			}
			if err := sorting.Verify(nt.tree, sorting.Reference(data), res); err != nil {
				return nil, fmt.Errorf("E3 %s/%s: %w", nt.name, np.name, err)
			}
			lb := lowerbound.Sorting(nt.tree, loadsOf(nt.tree, data))
			ratio := netsim.Ratio(res.Report.TotalCost(), lb.Value)
			sweep.AddRow(nt.name, np.name, res.Strategy, res.Report.NumRounds(), res.Report.TotalCost(), lb.Value, ratio)
		}
	}
	return []Table{sweep}, nil
}
