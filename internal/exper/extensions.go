package exper

import (
	"fmt"
	"math/rand"

	"topompc/internal/core/aggregate"
	"topompc/internal/core/join"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Extension experiments: tasks beyond the paper, built by composing its
// machinery (the conclusion's proposed next steps). These are clearly
// labeled X* and make no claims on behalf of the paper.

func init() {
	register(Experiment{
		ID:    "X1",
		Title: "Extension: topology-aware group-by aggregation",
		Paper: "beyond the paper (conclusion / related work [37])",
		Run:   runX1,
	})
	register(Experiment{
		ID:    "X2",
		Title: "Extension: binary equi-join with multiplicities",
		Paper: "beyond the paper (conclusion: 'a simple join between two relations')",
		Run:   runX2,
	})
}

func runX1(cfg Config) ([]Table, error) {
	tree, err := topology.TwoTier([]int{4, 4}, []float64{1, 1}, 100)
	if err != nil {
		return nil, err
	}
	p := tree.NumCompute()
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))

	pairsPerNode := 400
	rackGroups := 100
	if cfg.Quick {
		pairsPerNode, rackGroups = 100, 30
	}

	// Rack-local group structure: every node contributes to every group of
	// its rack, plus a sprinkle of global groups.
	data := make(aggregate.Placement, p)
	for i := 0; i < p; i++ {
		rack := i / 4
		for j := 0; j < pairsPerNode; j++ {
			var g uint64
			if j%10 == 0 {
				g = uint64(900000 + rng.Intn(rackGroups)) // global group
			} else {
				g = uint64(rack*100000 + rng.Intn(rackGroups))
			}
			data[i] = append(data[i], aggregate.Pair{Group: g, Value: int64(rng.Intn(50))})
		}
	}
	lb := aggregate.LowerBound(tree, data)
	ref := aggregate.Reference(data)

	table := Table{
		Title:   "X1: aggregation strategies on rack-local groups, weak uplinks",
		Note:    "CLB = exact spanning-groups bound (each partial costs 2 wire elements, so ratio 2 is the floor for cross-rack groups).",
		Headers: []string{"strategy", "rounds", "cost", "CLB", "ratio"},
	}
	for _, c := range []struct {
		name string
		run  func() (*aggregate.Result, error)
	}{
		{"hash (1 round)", func() (*aggregate.Result, error) { return aggregate.Hash(tree, data, cfg.Seed) }},
		{"two-level (rack combine)", func() (*aggregate.Result, error) { return aggregate.TwoLevel(tree, data, cfg.Seed) }},
		{"gather", func() (*aggregate.Result, error) { return aggregate.Gather(tree, data, topology.NoNode) }},
	} {
		res, err := c.run()
		if err != nil {
			return nil, err
		}
		if err := aggregate.Verify(ref, res); err != nil {
			return nil, fmt.Errorf("X1 %s: %w", c.name, err)
		}
		table.AddRow(c.name, res.Report.NumRounds(), res.Report.TotalCost(), lb,
			netsim.Ratio(res.Report.TotalCost(), lb))
	}
	return []Table{table}, nil
}

func runX2(cfg Config) ([]Table, error) {
	tree, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		return nil, err
	}
	p := tree.NumCompute()
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))

	nR, nS, keys := 600, 6000, 300
	if cfg.Quick {
		nR, nS, keys = 150, 1500, 80
	}
	r := make(join.Placement, p)
	s := make(join.Placement, p)
	for i := 0; i < nR; i++ {
		r[rng.Intn(p)] = append(r[rng.Intn(p)], join.Tuple{Key: uint64(rng.Intn(keys)), Payload: rng.Uint64()})
	}
	for i := 0; i < nS; i++ {
		n := rng.Intn(4) // S concentrated in the fast rack
		s[n] = append(s[n], join.Tuple{Key: uint64(rng.Intn(keys)), Payload: rng.Uint64()})
	}

	table := Table{
		Title:   "X2: equi-join, S concentrated in the fast rack (16:1 uplinks)",
		Note:    "Output sizes verified against the reference join; costs in wire elements (2 per tuple).",
		Headers: []string{"plan", "rounds", "pairs", "cost"},
	}
	aware, err := join.Tree(tree, r, s, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ref := join.Reference(r, s)
	if err := join.Verify(ref, aware); err != nil {
		return nil, fmt.Errorf("X2 aware: %w", err)
	}
	oblivious, err := join.UniformHash(tree, r, s, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := join.Verify(ref, oblivious); err != nil {
		return nil, fmt.Errorf("X2 oblivious: %w", err)
	}
	table.AddRow("topology-aware (blocks)", aware.Report.NumRounds(), aware.TotalPairs(), aware.Report.TotalCost())
	table.AddRow("uniform hash (MPC)", oblivious.Report.NumRounds(), oblivious.TotalPairs(), oblivious.Report.TotalCost())

	win := Table{
		Title:   "X2b: win factor",
		Headers: []string{"oblivious/aware cost"},
	}
	win.AddRow(netsim.Ratio(oblivious.Report.TotalCost(), aware.Report.TotalCost()))
	return []Table{table, win}, nil
}
