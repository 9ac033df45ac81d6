package multijoin

import (
	"topompc/internal/hashing"
	"topompc/internal/topology"
)

// The per-edge implementations the cut sweep replaced, kept as test
// oracles: map-based reference joins, and cut counts that filter every
// placement by side and re-run a reference join twice per edge —
// O(|E|·N) where the sweep is O(N log N).

// triangleReferenceMaps evaluates R(a,b) ⋈ S(b,c) ⋈ T(c,a) centrally via
// hash joins over distinct-tuple multiplicities.
func triangleReferenceMaps(r, s, t Placement) RefStats {
	rByB := make(map[uint64][]tcnt) // b -> distinct (a,b) with count
	{
		dist := make(map[Tuple]int64)
		for _, frag := range r {
			for _, tp := range frag {
				dist[tp]++
			}
		}
		for tp, n := range dist {
			rByB[tp.B] = append(rByB[tp.B], tcnt{t: tp, n: n})
		}
	}
	sDist := make(map[Tuple]int64) // (b, c)
	for _, frag := range s {
		for _, tp := range frag {
			sDist[tp]++
		}
	}
	tDist := make(map[Tuple]int64) // (c, a)
	for _, frag := range t {
		for _, tp := range frag {
			tDist[tp]++
		}
	}

	var st RefStats
	degR := make(map[Tuple]int64)
	degS := make(map[Tuple]int64)
	degT := make(map[Tuple]int64)
	for sp, ns := range sDist { // sp = (b, c)
		for _, rc := range rByB[sp.A] { // rc.t = (a, b)
			tp := Tuple{A: sp.B, B: rc.t.A} // (c, a)
			nt := tDist[tp]
			if nt == 0 {
				continue
			}
			st.Count += rc.n * ns * nt
			st.Checksum += tripleSig(rc.t.A, sp.A, sp.B) * uint64(rc.n*ns*nt)
			// Per-copy participation degrees.
			degR[rc.t] += ns * nt
			degS[sp] += rc.n * nt
			degT[tp] += rc.n * ns
		}
	}
	for _, m := range []map[Tuple]int64{degR, degS, degT} {
		for _, d := range m {
			if d > st.MaxDeg {
				st.MaxDeg = d
			}
		}
	}
	return st
}

// starReferenceMaps evaluates the k-way star join centrally, one count
// vector per value in a map.
func starReferenceMaps(rels []Placement) RefStats {
	k := len(rels)
	cnt := make(map[uint64][]int64)
	for j, rel := range rels {
		for _, frag := range rel {
			for _, tp := range frag {
				c := cnt[tp.A]
				if c == nil {
					c = make([]int64, k)
					cnt[tp.A] = c
				}
				c[j]++
			}
		}
	}
	var st RefStats
	for a, c := range cnt {
		rows := int64(1)
		for _, n := range c {
			rows *= n
		}
		if rows == 0 {
			continue
		}
		st.Count += rows
		st.Checksum += hashing.Mix64(a) * uint64(rows)
		// Degree of one tuple of relation j with value a: Π_{l≠j} cnt_l.
		for _, n := range c {
			if d := rows / n; d > st.MaxDeg {
				st.MaxDeg = d
			}
		}
	}
	return st
}

// sideBag collects the tuples of a placement residing on one side of an
// edge's cut into a single-fragment placement.
func sideBag(tr *topology.Tree, p Placement, e topology.EdgeID, below bool) Placement {
	var bag []Tuple
	for i, v := range tr.ComputeNodes() {
		if tr.OnChildSide(e, v) == below {
			bag = append(bag, p[i]...)
		}
	}
	return Placement{bag}
}

// triangleCutCountsPerEdge is TriangleCutCounts one edge at a time: two
// full side-filtered reference joins per edge.
func triangleCutCountsPerEdge(tr *topology.Tree, r, s, t Placement) func(e topology.EdgeID) (below, above int64) {
	return func(e topology.EdgeID) (int64, int64) {
		b := triangleReferenceMaps(sideBag(tr, r, e, true), sideBag(tr, s, e, true), sideBag(tr, t, e, true))
		a := triangleReferenceMaps(sideBag(tr, r, e, false), sideBag(tr, s, e, false), sideBag(tr, t, e, false))
		return b.Count, a.Count
	}
}

// starCutCountsPerEdge is StarCutCounts one edge at a time.
func starCutCountsPerEdge(tr *topology.Tree, rels []Placement) func(e topology.EdgeID) (below, above int64) {
	return func(e topology.EdgeID) (int64, int64) {
		side := func(below bool) int64 {
			filtered := make([]Placement, len(rels))
			for j, rel := range rels {
				filtered[j] = sideBag(tr, rel, e, below)
			}
			return starReferenceMaps(filtered).Count
		}
		return side(true), side(false)
	}
}
