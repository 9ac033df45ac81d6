package exper

import (
	"topompc"
	"topompc/internal/core/aggregate"
	"topompc/internal/topology"
)

// Extension experiments: tasks beyond the paper, built by composing its
// machinery (the conclusion's proposed next steps). These are clearly
// labeled X* and make no claims on behalf of the paper.

// gatherTask ships every partial aggregate to the node holding the most.
var gatherTask = task{name: "gather", run: func(t *topology.Tree, in input, _ uint64) (any, error) {
	return aggregate.Gather(t, in.records, topology.NoNode)
}}

func runX1(cfg Config) ([]Table, error) {
	tree := must(topology.TwoTier([]int{4, 4}, []float64{1, 1}, 100))
	rng := seeded(cfg.Seed)
	pairsPerNode, rackGroups := cfg.pick(400, 100), cfg.pick(100, 30)

	// Rack-local group structure: every node contributes to every group of
	// its rack, plus a sprinkle of global groups.
	data := make(aggregate.Placement, tree.NumCompute())
	for i := range data {
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

	table := newTable("X1: aggregation strategies on rack-local groups, weak uplinks",
		"CLB = exact spanning-groups bound (each partial costs 2 wire elements, so ratio 2 is the floor for cross-rack groups).",
		"strategy", "rounds", "cost", "CLB", "ratio")
	ms := table.each("rack-local groups", tree, cfg.Seed, ready(input{records: data}),
		aggregateBaseline, aggregateTask, gatherTask)
	for i, name := range []string{"hash (1 round)", "two-level (rack combine)", "gather"} {
		table.AddRow(name, ms[i].Rounds, ms[i].Cost, ms[i].Bound, ms[i].Ratio())
	}
	return finish(table)
}

func runX2(cfg Config) ([]Table, error) {
	tree := topo("two-tier 16:1")
	p := tree.NumCompute()
	rng := seeded(cfg.Seed)
	nR, keys := cfg.pick(600, 150), cfg.pick(300, 80)
	tuple := func() topompc.Row { return topompc.Row{Key: uint64(rng.Intn(keys)), Payload: rng.Uint64()} }
	r := make([][]topompc.Row, p)
	s := make([][]topompc.Row, p)
	for i := 0; i < nR; i++ {
		// Two draws per tuple: the fragment at the first becomes the fragment
		// at the second plus the tuple. The recorded tables were made on this
		// R, whose fragments repeat one another and do not add up to nR.
		to, from := rng.Intn(p), rng.Intn(p)
		r[to] = append(r[from], tuple())
	}
	for i := 0; i < 10*nR; i++ {
		n := rng.Intn(4) // S concentrated in the fast rack
		s[n] = append(s[n], tuple())
	}

	table := newTable("X2: equi-join, S concentrated in the fast rack (16:1 uplinks)",
		"Output sizes verified against the reference join; costs in wire elements (2 per tuple). "+
			"The planned join prices Algorithm 2's block round, a capacity-weighted hash and the uniform hash, and runs the cheapest (named).",
		"plan", "rounds", "pairs", "cost")
	ms := table.each("S in the fast rack", tree, cfg.Seed, ready(input{rows: [2][][]topompc.Row{r, s}}),
		joinTask, joinBaseline)
	aware, oblivious := ms[0], ms[1]
	table.AddRow("planned ("+aware.Strategy+")", aware.Rounds, aware.Outputs, aware.Cost)
	table.AddRow("uniform hash (MPC)", oblivious.Rounds, oblivious.Outputs, oblivious.Cost)

	win := newTable("X2b: win factor", "", "oblivious/aware cost")
	win.AddRow(ratio(oblivious.Cost, aware.Cost))
	return finish(table, win)
}
