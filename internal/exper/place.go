package exper

import (
	"fmt"
	"math/rand"

	"topompc/internal/core/place"
	"topompc/internal/dataset"
)

// Placement-engine experiments, on duplicate-heavy inputs across the
// topology zoo. X6: the two protocols unlocked by the shared
// internal/core/place engine — the planned sort and combiner-tree
// aggregation — against their flat counterparts × data placements. The
// planned sort prices its flat counterpart among its candidates, so its win
// column is at least 1 by construction; the aggregation pair runs the
// identical protocol modulo weak-cut block combining, so its win column
// isolates what the engine buys. X7: how the recursive weak-cut hierarchy's
// depth translates into combining wins — the same aggregation three ways
// (flat uniform hashing, the single-level combiner tree, the full multi-level
// one), so the two win columns separate what the flat decomposition buys from
// what the extra hierarchy levels buy. Single-band topologies (depth ≤ 1)
// must show multi/single parity; the deep-gradient shapes (tapered fat-tree,
// graded caterpillar, three-tier datacenter) are where the extra levels pay.

func runX6(seed uint64) ([]Table, error) {
	places := []namedPlacement{
		{"uniform", uniform},
		{"zipf", func(_ *rand.Rand, keys []uint64, p int) (dataset.Placement, error) {
			return zipf(seeded(seed), keys, p)
		}},
		{"oneheavy", oneHeavy},
	}
	n := 20000
	sortTable := newTable("X6a: planned sort vs uniform splitters",
		"aware prices four plans and runs the cheapest (strategy): the three-round sample sort "+
			"with key ranges by place.Capacities (sort-aware: weak-cut nodes own small ranges), "+
			"the same sort with uniform quantiles (sort-flat, the flat column), one round to the "+
			"node where it costs least (gather: data already behind a weak cut must leave, and the "+
			"rest joins it), and weighted TeraSort (wts). Outputs verified as valid sorts; "+
			"win = flat/aware, at least 1 by construction.",
		"topology", "placement", "N", "strategy", "aware cost", "flat cost", "win", "SLB", "aware/SLB")
	aggTable := newTable("X6b: combiner-tree aggregation vs uniform hashing",
		"Groups drawn from a shared low-cardinality pool (heavy duplication). Aware merges "+
			"partial aggregates once per minority-capacity weak-cut block, then hashes to "+
			"capacity-weighted homes; flat hashes every node's partials uniformly. CLB = exact "+
			"spanning-groups bound; totals verified on every run.",
		"topology", "placement", "records", "groups", "strategy", "aware cost", "flat cost", "win", "CLB", "aware/CLB")

	// One generator makes every input, a sort's then an aggregation's per row.
	rng := seeded(seed + 0x6)
	for _, nt := range topos("two-tier 16:1", "caterpillar", "fat-tree", "star") {
		for _, pl := range places {
			row := nt.name + "/" + pl.name
			ms := sortTable.each(row, nt.tree, seed, func(int) (input, error) { return distinctKeys(rng, nt.tree, n, pl.place) },
				sortAware, sortAwareFlat)
			aware, flat := ms[0], ms[1]
			sortTable.holds(aware.Cost <= flat.Cost, "%s: planned cost %.1f above its flat candidate's %.1f", row, aware.Cost, flat.Cost)
			sortTable.AddRow(nt.name, pl.name, n, aware.Strategy, aware.Cost, flat.Cost, ratio(flat.Cost, aware.Cost), aware.Bound, aware.Ratio())

			ms = aggTable.each(row, nt.tree, seed, func(int) (input, error) { return groupRecords(rng, nt.tree, n, pl.place) },
				aggTree2, aggAwareFlat)
			aware, flat = ms[0], ms[1]
			aggTable.AddRow(nt.name, pl.name, n, aware.Outputs, aware.Strategy,
				aware.Cost, flat.Cost, ratio(flat.Cost, aware.Cost), aware.Bound, aware.Ratio())
		}
	}
	return finish(sortTable, aggTable)
}

func runX7(seed uint64) ([]Table, error) {
	n := 20000
	table := newTable("X7: hierarchy depth vs cost (multi-level vs single-level vs flat aggregation)",
		"Groups drawn from a shared low-cardinality pool (heavy duplication). multi = "+
			"CombinerTree on the full weak-cut hierarchy (merge per block per level), single = "+
			"the hierarchy truncated to its deepest level (one merge level), flat = uniform hashing. Depth ≤ 1 "+
			"topologies must show ~1.0 multi/single; the deep gradients pay the extra rounds "+
			"back on every tier's cut. Totals verified on every run.",
		"topology", "depth", "cuts", "records", "multi cost", "single cost", "flat cost",
		"win multi/single", "win multi/flat", "CLB")
	rng := seeded(seed + 0x7)
	for _, nt := range topos("star", "fat-tree", "two-tier 16:1", "caterpillar",
		"three-tier 48:12:3", "fat-tree taper", "caterpillar grade") {
		depth, cuts := 0, "-"
		if h := place.HierarchyFor(nt.tree); h != nil {
			depth, cuts = h.Depth(), fmt.Sprintf("%.3g", h.Thresholds)
		}
		ms := table.each(nt.name, nt.tree, seed, func(int) (input, error) { return groupRecords(rng, nt.tree, n, uniform) },
			aggTree2, aggSingle, aggAwareFlat)
		multi, single, flat := ms[0], ms[1], ms[2]
		table.AddRow(nt.name, depth, cuts, n, multi.Cost, single.Cost, flat.Cost,
			ratio(single.Cost, multi.Cost), ratio(flat.Cost, multi.Cost), multi.Bound)
	}
	return finish(table)
}
