package exper

// Graph-processing extension experiments, beyond the paper and toward the MPC
// connectivity line (Andoni et al. 2018; Behnezhad et al. 2019), across the
// topology zoo × graph families. X5: topology-aware connected components
// (capacity-weighted vertex homes + per-cut combining of label updates)
// against the flat baseline, measured against the per-cut information bound.
// X9: budgeted graph exponentiation (cc-fast) against the Borůvka schedule
// (cc). The low-diameter families (G(n,p), power-law, bridge-of-cliques) are
// where doubling collapses the phase count; the path and grid adversaries are
// high-diameter inputs where truncated exponentiation must fall back
// gracefully. cc-fast never regresses past the Borůvka round count of a cc
// that still sends separate root queries by more than its one-round entry
// overhead, and pays even that only where cc takes a single phase, so that
// doubling has no phase to save.

import "fmt"

func runX5(cfg Config) ([]Table, error) {
	families, err := graphZoo(cfg)
	if err != nil {
		return nil, err
	}
	table := newTable("X5: connected components, aware vs flat label contraction",
		"Aware: vertices homed by bandwidth capacity, label updates combined per weak cut; "+
			"flat: uniform homes, direct delivery. CLB = per-cut information bound "+
			"("+spanningBoundName+"); labelings verified against union-find on every run.",
		"topology", "family", "V", "comps", "phases", "aware cost", "flat cost", "win", "CLB", "aware/CLB")
	for _, nt := range topos("two-tier 16:1", "caterpillar", "fat-tree") {
		for _, fam := range []string{"G(n,p)", "power-law", "grid", "bridge-of-cliques"} {
			ms := table.each(nt.name+"/"+fam, nt.tree, cfg.Seed, ready(dealEdges(families[fam], cfg.Seed, nt.tree)), ccTask, ccFlat)
			aware, flat := ms[0], ms[1]
			table.AddRow(nt.name, fam, aware.Vertices, aware.Outputs, aware.Phases,
				aware.Cost, flat.Cost, ratio(flat.Cost, aware.Cost), aware.Bound, aware.Ratio())
		}
	}
	return finish(table)
}

func runX9(cfg Config) ([]Table, error) {
	families, err := graphZoo(cfg)
	if err != nil {
		return nil, err
	}
	table := newTable("X9: cc-fast graph exponentiation vs Borůvka rounds",
		"Both protocols use capacity homes + per-cut combining; cc hooks one hop per phase "+
			"(Borůvka), cc-fast learns budgeted multi-hop neighborhoods by doubling before hooking. "+
			"Rounds are engine exchange rounds; win = cc/cc-fast. A cc phase of L combining levels "+
			"and j jump iterations takes (L+1) + 2j + (L+1) rounds, its propose sweep doubling as "+
			"its root query. cc-fast is held to the rounds cc took before that, L+1 more a phase: "+
			"no more where cc takes several phases, at most one more where cc takes one, since "+
			"doubling has no phase to save there and cc-fast may pay its one-round entry overhead. "+
			"Labelings verified against union-find on every run.",
		"topology", "family", "V", "comps", "cc phases", "cc rounds", "cc cost",
		"fast phases", "fast rounds", "fast cost", "round win", "cost win")
	for _, nt := range topos("two-tier 16:1", "caterpillar", "fat-tree") {
		for _, fam := range []string{"G(n,p)", "power-law", "bridge-of-cliques", "grid", "path"} {
			c := cell{name: nt.name + "/" + fam, tree: nt.tree, task: ccTask, seed: cfg.Seed,
				in: ready(dealEdges(families[fam], cfg.Seed, nt.tree))}
			slow := table.run(c)
			// cc-fast's ceiling is the round count of cc's phases as they
			// were when a phase still sent its root queries up the L
			// combining levels and to the homes after pointer jumping:
			// (L+1) + 2j + (2L+2) rounds a phase, L+1 more than the
			// (L+1) + 2j + (L+1) cc takes now that its propose sweep is the
			// query. So the ceiling is cc's rounds plus (L+1)·phases, plus
			// the one-round entry overhead where cc takes a single phase:
			// there doubling has no phase to save.
			levels := 0 // "aware" runs direct: no combining level
			fmt.Sscanf(slow.Strategy, "aware+combine×%d", &levels)
			extra := (levels + 1) * slow.Phases
			if slow.Phases == 1 {
				extra++
			}
			c.task, c.ceiling.Rounds = ccFast, slow.Rounds+extra
			fast := table.run(c)
			table.AddRow(nt.name, fam, slow.Vertices, slow.Outputs, slow.Phases, slow.Rounds, slow.Cost,
				fast.Phases, fast.Rounds, fast.Cost, ratio(float64(slow.Rounds), float64(fast.Rounds)), ratio(slow.Cost, fast.Cost))
		}
	}
	return finish(table)
}
