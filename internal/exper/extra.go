package exper

import (
	"fmt"

	"topompc/internal/core/cartesian"
	"topompc/internal/core/intersect"
	"topompc/internal/core/sorting"
	"topompc/internal/topology"
)

// This file covers the unequal cartesian product (Appendix A.1), the
// topology-aware vs oblivious comparison motivating the paper, and the
// ablations of the protocols' design choices.

// The cartesian-product protocols run directly, outside CartesianProduct.
var (
	// unequalTask is Algorithms 7-8 against their own bound whatever the
	// sizes: at |R| = |S| CartesianProduct would run the equal-size protocol.
	unequalTask = task{name: "unequal", unequalBound: true, run: func(t *topology.Tree, in input, _ uint64) (any, error) { return cartesian.Unequal(t, in.r, in.s) }}
	// treeWHC is §4.4's protocol run directly: on a star it is Algorithm 4,
	// the weighted HyperCube.
	treeWHC     = task{name: "tree-whc", run: func(t *topology.Tree, in input, _ uint64) (any, error) { return cartesian.Tree(t, in.r, in.s) }}
	uniformGrid = task{name: "uniform-grid", run: func(t *topology.Tree, in input, _ uint64) (any, error) { return cartesian.UniformGrid(t, in.r, in.s) }}
)

func runE9(seed uint64) ([]Table, error) {
	star := must(topology.Star([]float64{1, 2, 4, 8, 16}))
	table := newTable("E9: |R| sweep with |S| fixed on star with bandwidths 1,2,4,8,16",
		"CLB = unequal cut bound (§4.5); the generalized wHC prices a gather at each node, the broadcast of R and its column-and-square packing, and runs the cheapest.",
		"|R|", "|S|", "strategy", "cost", "CLB", "ratio")
	table.Ceiling = cartesianClaim
	sizeS := 8192
	ratios := []int{1, 4, 16, 64, 256}
	for _, k := range ratios {
		sizeR := sizeS / k
		m := table.run(cell{name: fmt.Sprintf("|R|=%d", sizeR), tree: star, task: unequalTask, in: func(int) (input, error) {
			return distinctPair(seeded(seed), star, sizeR, sizeS, uniform)
		}})
		table.AddRow(sizeR, sizeS, m.Strategy, m.Cost, m.Bound, m.Ratio())
	}
	return finish(table)
}

func runE10(seed uint64) ([]Table, error) {
	// A bottlenecked two-tier datacenter with skewed data: the setting the
	// introduction argues motivates topology-awareness.
	tree := topo("two-tier 16:1")
	p := tree.NumCompute()
	table := newTable("E10: topology-aware vs oblivious on a two-tier tree with a 16:1 uplink gap",
		"Data is placed mostly under the fast uplink; 'win' is oblivious cost / aware cost.",
		"task", "aware", "cost", "oblivious", "cost", "win")
	// Placement: 90% of data in rack 1 (fast uplink). One generator makes the
	// three inputs in turn.
	const fast, slow = 0.9 / 4, 0.1 / 4
	heavy := weighted(fast, fast, fast, fast, slow, slow, slow, slow)
	rng := seeded(seed)
	sizeR, half := 1500, 2048
	for _, c := range []struct {
		name, awareName, obliviousName string
		aware, oblivious               task
		in                             func(int) (input, error)
	}{
		{"intersection", "TreeIntersect", "uniform hash join", intersectTask, intersectBaseline,
			func(int) (input, error) { return setPair(rng, tree, sizeR, 4*sizeR, sizeR/10, heavy, heavy) }},
		{"cartesian", "tree wHC", "uniform HyperCube", cartesianTask, uniformGrid,
			func(int) (input, error) { return distinctPair(rng, tree, half, half, heavy) }},
		{"sorting", "planned wTS", "TeraSort", sortTask, sortBaseline,
			func(int) (input, error) { return distinctKeys(rng, tree, 4*p*p*64, heavy) }},
	} {
		// The oblivious protocol runs first, on the input both share: its cost
		// is the aware one's ceiling.
		in, err := c.in(0)
		fixed := func(int) (input, error) { return in, err }
		oblivious := table.run(cell{name: c.name, tree: tree, task: c.oblivious, seed: seed, in: fixed})
		aware := table.run(cell{name: c.name, tree: tree, task: c.aware, seed: seed, in: fixed, ceiling: Ceiling{Cost: oblivious.Cost}})
		table.AddRow(c.name, c.awareName, aware.Cost, c.obliviousName, oblivious.Cost, ratio(oblivious.Cost, aware.Cost))
	}
	return finish(table)
}

func runA1(seed uint64) ([]Table, error) {
	// One node holds 80% of S; weighted hashing keeps data near it while
	// uniform hashing drags everything across the star.
	star := topo("star-uniform")
	table := newTable("A1: weighted (distribution-aware) vs uniform hashing, one-heavy placement", "",
		"hashing", "cost", "CLB", "ratio")
	sizeR := 1000
	ms := table.each("one-heavy S", star, seed, func(int) (input, error) {
		return setPair(seeded(seed), star, sizeR, 9*sizeR, sizeR/10, uniform, oneHeavy)
	}, intersectTask, intersectBaseline)
	table.AddRow("weighted (Alg 2)", ms[0].Cost, ms[0].Bound, ms[0].Ratio())
	table.AddRow("uniform (MPC)", ms[1].Cost, ms[1].Bound, ms[1].Ratio())
	return finish(table)
}

func runA2(seed uint64) ([]Table, error) {
	// Rack-heavy placement with β uplinks: the balanced partition keeps S
	// tuples inside their racks; the single-block variant hashes S across
	// racks.
	tree := must(topology.TwoTier([]int{4, 4, 4}, []float64{1, 1, 1}, 8))
	sizeR := 500
	table := newTable("A2: balanced partition on vs off (three racks, weak uplinks)", "",
		"variant", "blocks", "cost", "CLB", "ratio")
	ms := table.each("three racks", tree, seed, func(int) (input, error) {
		return setPair(seeded(seed), tree, sizeR, 12000, sizeR/10, uniform, uniform)
	}, // Both variants in the explicit form: the blocks column is TreeIntersect's own.
		task{name: "partition on", run: func(t *topology.Tree, in input, seed uint64) (any, error) { return intersect.Tree(t, in.r, in.s, seed) }},
		task{name: "partition off", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
			return intersect.TreeNoPartition(t, in.r, in.s, seed)
		}})
	table.AddRow("partition on", ms[0].Blocks, ms[0].Cost, ms[0].Bound, ms[0].Ratio())
	table.AddRow("partition off", ms[1].Blocks, ms[1].Cost, ms[1].Bound, ms[1].Ratio())
	return finish(table)
}

func runA3(seed uint64) ([]Table, error) {
	// Two heavy nodes of very different sizes (45% and 25%), the junior one
	// behind a 4× slower link; four genuinely light nodes (7.5% each, below
	// the N/2|VC| ≈ 8.3% threshold). Uniform light-routing pushes half the
	// light data through the slow link; proportional routing respects it.
	star := must(topology.Star([]float64{4, 1, 4, 4, 4, 4}))
	p := star.NumCompute()
	table := newTable("A3: proportional vs uniform light→heavy routing (heavy nodes 45%/25%, slow junior link)", "",
		"variant", "cost", "CLB", "ratio")
	ms := table.each("45%/25% heavy", star, seed, func(int) (input, error) {
		return distinctKeys(seeded(seed), star, 4*p*p*64, weighted(0.45, 0.25, 0.075, 0.075, 0.075, 0.075))
	},
		task{name: "proportional", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
			return sorting.WTSUnpriced(t, in.r, seed, sorting.ProportionalLight)
		}},
		task{name: "uniform split", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
			return sorting.WTSUnpriced(t, in.r, seed, sorting.UniformLight)
		}})
	for i, arm := range []string{"proportional", "uniform split"} {
		table.holds(ms[i].Strategy == "wts", "%s arm ran %s, not wts", arm, ms[i].Strategy)
	}
	table.AddRow("proportional (Alg 6)", ms[0].Cost, ms[0].Bound, ms[0].Ratio())
	table.AddRow("uniform split", ms[1].Cost, ms[1].Bound, ms[1].Ratio())
	return finish(table)
}

func runA4(seed uint64) ([]Table, error) {
	table := newTable("A4: weighted HyperCube vs uniform squares across bandwidth skews",
		"Bandwidths w_i = base^i; with skew the weighted squares follow the links while uniform squares overload the slowest link.",
		"bandwidth base", "weighted cost", "uniform cost", "CLB", "weighted ratio", "uniform ratio")
	half := 2048
	for _, base := range []float64{1, 1.5, 2, 3} {
		bws := make([]float64, 6)
		w := 1.0
		for i := range bws {
			bws[i] = w
			w *= base
		}
		star := must(topology.Star(bws))
		ms := table.each(fmt.Sprintf("base %v", base), star, seed, func(int) (input, error) {
			return distinctPair(seeded(seed), star, half, half, uniform)
		}, treeWHC, uniformGrid)
		weightedM, uniformM := ms[0], ms[1]
		table.AddRow(base, weightedM.Cost, uniformM.Cost, weightedM.Bound, weightedM.Ratio(), uniformM.Ratio())
	}
	return finish(table)
}
