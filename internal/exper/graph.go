package exper

// Graph-processing extension experiments, beyond the paper and toward the MPC
// connectivity line (Andoni et al. 2018; Behnezhad et al. 2019), across the
// topology zoo × graph families. X5: topology-aware connected components
// (capacity-weighted vertex homes + per-cut combining of label updates, or
// the one-round gather it is weighed against) against the flat baseline,
// measured against the per-cut information bound.

func runX5(seed uint64) ([]Table, error) {
	families, err := graphZoo(seed)
	if err != nil {
		return nil, err
	}
	table := newTable("X5: connected components, aware vs flat label contraction",
		"Aware: vertices homed by bandwidth capacity, label updates combined per weak cut, "+
			"or every edge gathered at one node in one round (0 phases) where that costs no more than the contraction's phase 1; "+
			"flat: uniform homes, direct delivery. CLB = per-cut connectivity bound, "+
			spanningBoundName+" over vertex holders (it dominates the component term); "+
			"labelings verified against union-find on every run.",
		"topology", "family", "V", "comps", "phases", "aware cost", "flat cost", "win", "CLB", "aware/CLB")
	for _, nt := range topos("two-tier 16:1", "caterpillar", "fat-tree") {
		for _, fam := range []string{"G(n,p)", "power-law", "grid", "bridge-of-cliques"} {
			ms := table.each(nt.name+"/"+fam, nt.tree, seed, ready(dealEdges(families[fam], seed, nt.tree)), ccTask, ccFlat)
			aware, flat := ms[0], ms[1]
			table.AddRow(nt.name, fam, aware.Vertices, aware.Outputs, aware.Phases,
				aware.Cost, flat.Cost, ratio(flat.Cost, aware.Cost), aware.Bound, aware.Ratio())
		}
	}
	return finish(table)
}
