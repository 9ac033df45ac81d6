package exper

import (
	"fmt"
	"math"

	"topompc/internal/topology"
)

// This file regenerates Table 1: for each task, the round count and the
// measured cost / lower-bound ratio across topologies, placements and input
// sizes, held to the claimed optimality envelopes.

// The claims of Table 1 as ceilings. Intersection's is its envelope, which
// depends on the instance; the two O(1) claims get the recorded maximum of
// their sweep with headroom for other seeds (the placements are random).
var (
	// cartesianClaim: one round; ratio 2.74 recorded at seed 42, up to 3.05
	// over seeds 1-25.
	cartesianClaim = Ceiling{Rounds: 1, Ratio: 3.5}
	// sortingClaim: at most four rounds (Theorem 7); ratio 2.18 recorded at
	// seed 42, up to 2.28 over seeds 1-25 (2.14 in E4).
	sortingClaim = Ceiling{Rounds: 4, Ratio: 2.75}
)

// intersectClaim is Table 1's row 1 on a given instance: one round, within
// log2|V|·log2 N of Theorem 1.
func intersectClaim(t *topology.Tree, n int) Ceiling {
	return Ceiling{Rounds: 1, Ratio: math.Log2(float64(t.NumNodes())) * math.Log2(float64(n))}
}

func runE1(seed uint64) ([]Table, error) {
	sweep := newTable("E1a: TreeIntersect across topologies and placements",
		"N = |R|+|S|; ratio = measured cost / CLB (Theorem 1); envelope = log2|V|·log2 N.",
		"topology", "placement", "|V|", "N", "rounds", "cost", "CLB", "ratio", "envelope")
	sizeR, sizeS := 2000, 8000
	for _, nt := range topoSuite() {
		for _, np := range placementSuite {
			claim := intersectClaim(nt.tree, sizeR+sizeS)
			m := sweep.run(cell{name: nt.name + "/" + np.name, tree: nt.tree, task: intersectTask, seed: seed,
				trials: 3, ceiling: claim, in: func(trial int) (input, error) {
					return setPair(seeded(seed+7*uint64(trial)), nt.tree, sizeR, sizeS, sizeR/5, np.place, np.place)
				}})
			sweep.AddRow(nt.name, np.name, nt.tree.NumNodes(), sizeR+sizeS, m.Rounds, m.Cost, m.Bound, m.Ratio(), claim.Ratio)
		}
	}

	// growthCell is a cell of the two growth tables: N/4 against 3N/4 keys
	// sharing N/20.
	growthCell := func(t *topology.Tree, n int, place placement) cell {
		return cell{name: fmt.Sprintf("N=%d |V|=%d", n, t.NumNodes()), tree: t, task: intersectTask, seed: seed,
			ceiling: intersectClaim(t, n), in: func(int) (input, error) {
				return setPair(seeded(seed), t, n/4, 3*n/4, n/20, place, place)
			}}
	}

	growth := newTable("E1b: ratio growth with N (two-tier, zipf placement)",
		"The w.h.p. guarantee allows O(log|V|·logN); the measured ratio should grow at most logarithmically.",
		"N", "cost", "CLB", "ratio")
	sizes := []int{1000, 4000, 16000, 64000}
	tt := topo("two-tier")
	for _, n := range sizes {
		m := growth.run(growthCell(tt, n, zipf))
		growth.AddRow(n, m.Cost, m.Bound, m.Ratio())
	}

	vGrowth := newTable("E1c: ratio growth with |V| (uniform stars, N fixed)",
		"The log|V| factor comes from the union bound over links; the measured ratio should stay far below it.",
		"|V|", "cost", "CLB", "ratio", "log2|V|")
	vSizes := []int{2, 4, 8, 16, 32, 64}
	for _, p := range vSizes {
		m := vGrowth.run(growthCell(must(topology.UniformStar(p, 1)), 16000, uniform))
		vGrowth.AddRow(p+1, m.Cost, m.Bound, m.Ratio(), math.Log2(float64(p+1)))
	}
	return finish(sweep, growth, vGrowth)
}

func runE2(seed uint64) ([]Table, error) {
	sweep := newTable("E2a: tree cartesian product across topologies and placements",
		"CLB = max(Theorem 3 cut bound, Theorem 4 cover bound); the guarantee is an O(1) ratio.",
		"topology", "placement", "strategy", "rounds", "cost", "CLB", "ratio")
	sweep.Ceiling = cartesianClaim
	// equalPair is a cell on two relations of half distinct keys each.
	equalPair := func(name string, t *topology.Tree, half int, place placement) cell {
		return cell{name: name, tree: t, task: cartesianTask, in: func(int) (input, error) {
			return distinctPair(seeded(seed), t, half, half, place)
		}}
	}
	for _, nt := range topoSuite() {
		for _, np := range placementSuite {
			m := sweep.run(equalPair(nt.name+"/"+np.name, nt.tree, 2048, np.place))
			sweep.AddRow(nt.name, np.name, m.Strategy, m.Rounds, m.Cost, m.Bound, m.Ratio())
		}
	}

	growth := newTable("E2b: ratio stability with N (heterogeneous star)",
		"Lemma 7/Theorem 5 claim a constant ratio independent of N.",
		"N", "cost", "CLB", "ratio")
	growth.Ceiling = cartesianClaim
	hstar := must(topology.Star([]float64{1, 2, 4, 8, 16, 32}))
	halves := []int{512, 2048, 8192, 32768}
	for _, h := range halves {
		m := growth.run(equalPair(fmt.Sprintf("N=%d", 2*h), hstar, h, uniform))
		growth.AddRow(2*h, m.Cost, m.Bound, m.Ratio())
	}
	return finish(sweep, growth)
}

func runE3(seed uint64) ([]Table, error) {
	sweep := newTable("E3a: planned weighted TeraSort across topologies and placements",
		"CLB = Theorem 6; Theorem 7 claims ≤ 4 rounds and an O(1) ratio w.h.p. in the regime N ≥ 4|VC|²ln(|VC|N). "+
			"sort prices wTS against a one-round gather at the node where it costs least and runs the cheaper (strategy).",
		"topology", "placement", "strategy", "rounds", "cost", "CLB", "ratio")
	sweep.Ceiling = sortingClaim
	for _, nt := range topoSuite() {
		p := nt.tree.NumCompute()
		for _, np := range placementSuite {
			m := sweep.run(cell{name: nt.name + "/" + np.name, tree: nt.tree, task: sortTask, seed: seed,
				in: func(int) (input, error) {
					return distinctKeys(seeded(seed), nt.tree, 4*p*p*64, np.place)
				}})
			sweep.AddRow(nt.name, np.name, m.Strategy, m.Rounds, m.Cost, m.Bound, m.Ratio())
		}
	}
	return finish(sweep)
}
