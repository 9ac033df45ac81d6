package cartesian

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/topology"
)

// TestPackOnTreePerEdgeBound verifies the central inequality of §4.4: for
// every node u of G†, the total perimeter of the (merged) composites of
// u's subtree — which bounds the rows and columns that must cross the link
// (u, parent(u)) — is at most 16·N·l_u. Without the hierarchical merging
// the same sum over raw leaf squares can be arbitrarily larger.
func TestPackOnTreePerEdgeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 60; iter++ {
		tr, err := topology.Random(rng, 3+rng.Intn(10), 1+rng.Intn(5), 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		tr, _ = topology.EnsureComputeLeaves(tr)
		loads := make(topology.Loads, tr.NumNodes())
		for _, v := range tr.ComputeNodes() {
			loads[v] = int64(1 + rng.Intn(500))
		}
		d := topology.Orient(tr, loads)
		if d.RootIsCompute() {
			continue
		}
		n := loads.Total()
		dims := balancedPackingTree(d, n)
		placed, _, err := PackOnTree(d, dims.side)
		if err != nil {
			t.Fatal(err)
		}
		pos := make(map[topology.NodeID]PlacedSquare, len(placed))
		for _, p := range placed {
			pos[p.Node] = p
		}
		// For each G† node u, the rows∪columns needed by the compute nodes
		// of u's subtree: measure the union length of their X and Y ranges.
		inSubtree := subtreeSets(d)
		for u := topology.NodeID(0); int(u) < tr.NumNodes(); u++ {
			if u == d.Root() || dims.l[u] == 0 {
				continue
			}
			var xs, ys []interval
			for v := range inSubtree[u] {
				p, ok := pos[v]
				if !ok {
					continue
				}
				xs = append(xs, interval{p.X, p.X + p.Side})
				ys = append(ys, interval{p.Y, p.Y + p.Side})
			}
			need := unionLen(xs) + unionLen(ys)
			bound := 16 * float64(n) * dims.l[u]
			if bound < 2 { // all-integer grid: at least one row+col
				bound = 2
			}
			if float64(need) > bound+1e-6 {
				t.Fatalf("iter %d: subtree of %v needs %d rows+cols, bound 16·N·l = %.2f",
					iter, u, need, bound)
			}
		}
	}
}

// subtreeSets returns, for each node, the set of compute nodes in its G†
// subtree.
func subtreeSets(d *topology.Directed) map[topology.NodeID]map[topology.NodeID]bool {
	t := d.Tree()
	sets := make(map[topology.NodeID]map[topology.NodeID]bool, t.NumNodes())
	for _, v := range d.PostOrder() {
		s := make(map[topology.NodeID]bool)
		if t.IsCompute(v) {
			s[v] = true
		}
		for _, c := range d.Children(v) {
			for k := range sets[c] {
				s[k] = true
			}
		}
		sets[v] = s
	}
	return sets
}

func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, compareIvs)
	var total, end int64
	end = math.MinInt64
	for _, iv := range ivs {
		if iv.a > end {
			total += iv.b - iv.a
			end = iv.b
		} else if iv.b > end {
			total += iv.b - end
			end = iv.b
		}
	}
	return total
}

// TestTreeCartesianEdgeTrafficWithinBound runs the full protocol and checks
// that the measured per-edge traffic never exceeds the §4.4 accounting:
// data-below (Theorem 3 term) plus composite perimeter (Theorem 4 term),
// with the analysis constants.
func TestTreeCartesianEdgeTrafficWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 20; iter++ {
		tr, err := topology.Random(rng, 2+rng.Intn(6), 1+rng.Intn(4), 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		p := tr.NumCompute()
		half := 200 + rng.Intn(600)
		r := dataset.Distinct(rng, half)
		s := dataset.Distinct(rng, half)
		pr, _ := dataset.SplitZipf(rng, r, p, rng.Float64())
		ps, _ := dataset.SplitZipf(rng, s, p, rng.Float64())
		res, err := Tree(tr, pr, ps)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != "tree" {
			continue
		}
		loads := make(topology.Loads, tr.NumNodes())
		var n int64
		for i, v := range tr.ComputeNodes() {
			loads[v] = int64(len(pr[i]) + len(ps[i]))
			n += loads[v]
		}
		cuts := tr.Cuts(loads)
		// The report's tree may be the normalized one; only compare when
		// shapes match (identity normalization).
		if res.Report.Tree != tr {
			continue
		}
		// The protocol is one round, so the report's edge totals are that
		// round's per-edge traffic.
		if rounds := res.Report.NumRounds(); rounds != 1 {
			t.Fatalf("tree cartesian ran %d rounds, want 1", rounds)
		}
		for e, got := range res.Report.EdgeTotals {
			// Up-traffic ≤ data below; down-traffic ≤ 32·N·l ≤ 32·min
			// side... use the loose but rigorous bound 2·cutmin + 32·N.
			limit := 2*cuts[e].Min() + 32*n
			if got > limit {
				t.Fatalf("edge %d carries %d > accounting bound %d", e, got, limit)
			}
		}
	}
}
