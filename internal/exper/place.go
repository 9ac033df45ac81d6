package exper

import (
	"fmt"
	"math/rand"

	"topompc/internal/core/aggregate"
	"topompc/internal/core/sorting"
	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Placement-engine experiment: the two protocols unlocked by the shared
// internal/core/place engine — capacity-weighted splitter sort and
// combiner-tree aggregation — against their flat counterparts across the
// topology zoo × data placements. Each pair runs the identical protocol
// modulo the placement lever (capacity key ranges / weak-cut block
// combining), so the win column isolates what the engine buys.

func init() {
	register(Experiment{
		ID:    "X6",
		Title: "Extension: capacity splitters and combiner-tree aggregation, aware vs flat",
		Paper: "beyond the paper (place engine; cf. distribution-aware aggregation, Liu et al. VLDB 2018)",
		Run:   runX6,
	})
}

func runX6(cfg Config) ([]Table, error) {
	twotier, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		return nil, err
	}
	cater, err := topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4)
	if err != nil {
		return nil, err
	}
	fattree, err := topology.FatTree(2, 3, 2, 3)
	if err != nil {
		return nil, err
	}
	star, err := topology.UniformStar(8, 2)
	if err != nil {
		return nil, err
	}
	trees := []struct {
		name string
		tree *topology.Tree
	}{
		{"two-tier 16:1", twotier}, {"caterpillar", cater}, {"fat-tree", fattree}, {"star", star},
	}
	places := []struct {
		name  string
		split func(keys []uint64, p int) (dataset.Placement, error)
	}{
		{"uniform", dataset.SplitUniform},
		{"zipf", func(keys []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitZipf(rand.New(rand.NewSource(int64(cfg.Seed))), keys, p, 1.2)
		}},
		{"oneheavy", func(keys []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitOneHeavy(keys, p, 0, 0.8)
		}},
	}

	n := 20000
	if cfg.Quick {
		n = 2000
	}

	sortTable := Table{
		Title: "X6a: capacity-weighted splitter sort vs uniform splitters",
		Note: "Identical three-round sample sort; aware apportions the key ranges by place.Capacities " +
			"(weak-cut nodes own small ranges), flat uses uniform quantiles. Outputs verified as " +
			"valid sorts; win = flat/aware. Capacity ranges shrink the traffic *into* weak subtrees; " +
			"data already behind a weak cut must still leave (that send-side lever is wTS's).",
		Headers: []string{"topology", "placement", "N", "aware cost", "flat cost", "win", "SLB", "aware/SLB"},
	}
	aggTable := Table{
		Title: "X6b: combiner-tree aggregation vs uniform hashing",
		Note: "Groups drawn from a shared low-cardinality pool (heavy duplication). Aware merges " +
			"partial aggregates once per minority-capacity weak-cut block, then hashes to " +
			"capacity-weighted homes; flat hashes every node's partials uniformly. CLB = exact " +
			"spanning-groups bound; totals verified on every run.",
		Headers: []string{"topology", "placement", "records", "groups", "strategy", "aware cost", "flat cost", "win", "CLB", "aware/CLB"},
	}

	rng := rand.New(rand.NewSource(int64(cfg.Seed) + 0x6))
	for _, tr := range trees {
		p := tr.tree.NumCompute()
		for _, pl := range places {
			// Sort pair.
			keys := dataset.Distinct(rng, n)
			data, err := pl.split(keys, p)
			if err != nil {
				return nil, err
			}
			aware, err := sorting.CapacitySort(tr.tree, data, cfg.Seed)
			if err != nil {
				return nil, err
			}
			flat, err := sorting.CapacitySortFlat(tr.tree, data, cfg.Seed)
			if err != nil {
				return nil, err
			}
			sorted := sorting.Reference(data)
			for variant, res := range map[string]*sorting.Result{"aware": aware, "flat": flat} {
				if err := sorting.Verify(tr.tree, sorted, res); err != nil {
					return nil, fmt.Errorf("X6a %s on %s/%s: %w", variant, tr.name, pl.name, err)
				}
			}
			slb := lowerbound.Sorting(tr.tree, loadsOf(tr.tree, data)).Value
			sortTable.AddRow(tr.name, pl.name, n,
				aware.Report.TotalCost(), flat.Report.TotalCost(),
				netsim.Ratio(flat.Report.TotalCost(), aware.Report.TotalCost()),
				slb, netsim.Ratio(aware.Report.TotalCost(), slb))

			// Aggregation pair: duplicate-heavy groups.
			pool := dataset.Distinct(rng, max(1, n/8))
			gk := make([]uint64, n)
			for i := range gk {
				gk[i] = pool[rng.Intn(len(pool))]
			}
			gdata, err := pl.split(gk, p)
			if err != nil {
				return nil, err
			}
			apl := make(aggregate.Placement, p)
			groups := make(map[uint64]bool)
			for i, frag := range gdata {
				for _, g := range frag {
					apl[i] = append(apl[i], aggregate.Pair{Group: g, Value: 1})
					groups[g] = true
				}
			}
			aaware, err := aggregate.CombinerTree(tr.tree, apl, cfg.Seed)
			if err != nil {
				return nil, err
			}
			aflat, err := aggregate.HashFlat(tr.tree, apl, cfg.Seed)
			if err != nil {
				return nil, err
			}
			totals := aggregate.Reference(apl)
			for variant, res := range map[string]*aggregate.Result{"aware": aaware, "flat": aflat} {
				if err := aggregate.Verify(totals, res); err != nil {
					return nil, fmt.Errorf("X6b %s on %s/%s: %w", variant, tr.name, pl.name, err)
				}
			}
			clb := aggregate.LowerBound(tr.tree, apl)
			aggTable.AddRow(tr.name, pl.name, n, len(groups), aaware.Strategy,
				aaware.Report.TotalCost(), aflat.Report.TotalCost(),
				netsim.Ratio(aflat.Report.TotalCost(), aaware.Report.TotalCost()),
				clb, netsim.Ratio(aaware.Report.TotalCost(), clb))
		}
	}
	return []Table{sortTable, aggTable}, nil
}
