package exper

import "topompc"

// Multiway-join extension experiments: the HyperCube-on-a-tree shuffle
// (internal/core/multijoin) against flat HyperCube across the standard
// topology zoo. Like X1/X2 these are beyond the paper; costs are measured
// against the tuple-transfer cut bound.

// awareVsFlat runs a multiway join's aware and flat rows on one input and
// adds the table's row: output size, both costs, the win, the bound.
func awareVsFlat(table *Table, nt namedTopo, rels []relation, seed uint64, aware, flat task) {
	ms := table.each(nt.name, nt.tree, seed, ready(input{rels: rels}), aware, flat)
	a, f := ms[0], ms[1]
	table.AddRow(nt.name, a.Outputs, a.Cost, f.Cost, ratio(f.Cost, a.Cost), a.Bound, a.Ratio())
}

func runX3(seed uint64) ([]Table, error) {
	m, dom := 900, 30
	table := newTable("X3: triangle join R(a,b)⋈S(b,c)⋈T(c,a), aware vs flat shares",
		"Shares g_a×g_b×g_c ≤ p; aware apportions grid cells by subtree bandwidth capacity. "+
			"CLB = tuple-transfer cut bound ("+multijoinBoundName+"); outputs verified against the reference join.",
		"topology", "triangles", "aware cost", "flat cost", "win", "CLB", "aware/CLB")
	for _, nt := range topos("star", "two-tier 16:1", "fat-tree", "caterpillar") {
		p := nt.tree.NumCompute()
		rng := seeded(seed)
		rels := make([]relation, 3)
		for j := range rels {
			rels[j] = make(relation, p)
			for i := 0; i < m; i++ {
				n := rng.Intn(p)
				rels[j][n] = append(rels[j][n], topompc.Tuple2{A: uint64(rng.Intn(dom)), B: uint64(rng.Intn(dom))})
			}
		}
		awareVsFlat(&table, nt, rels, seed, triangleTask, triangleFlat)
	}
	return finish(table)
}

func runX4(seed uint64) ([]Table, error) {
	k, m := 4, 1200
	table := newTable("X4: 4-way star join on the shared attribute, aware vs uniform hashing",
		"Join values hashed to nodes with probability ∝ bandwidth capacity (aware) or uniformly (flat); "+
			"data ~75% concentrated on the best-connected half of each topology. Outputs verified against the reference join.",
		"topology", "rows", "aware cost", "flat cost", "win", "CLB", "aware/CLB")
	for _, nt := range topos("star", "two-tier 16:1", "fat-tree", "caterpillar") {
		p := nt.tree.NumCompute()
		rng := seeded(seed + 1)
		// Skewed placement: three quarters of each relation lands on the
		// first half of the compute nodes (the fast rack of the two-tier,
		// the strong spine end of the caterpillar).
		rels := make([]relation, k)
		for j := range rels {
			rels[j] = make(relation, p)
			for i := 0; i < m; i++ {
				var n int
				if rng.Intn(4) == 0 {
					n = rng.Intn(p)
				} else {
					n = rng.Intn((p + 1) / 2)
				}
				rels[j][n] = append(rels[j][n], topompc.Tuple2{A: uint64(rng.Intn(m / 4)), B: rng.Uint64()})
			}
		}
		awareVsFlat(&table, nt, rels, seed, starJoin, starJoinFlat)
	}
	return finish(table)
}
