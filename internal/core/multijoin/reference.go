package multijoin

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"topompc/internal/hashing"
	"topompc/internal/topology"
)

// Reference evaluation and cut counts. Both read the same index of the
// input — every distinct tuple (triangle) or join value (star) with the
// fragments holding it — so a caller that needs the reference join and the
// lowerbound.Multijoin "within" counts builds the index once
// (IndexTriangle, IndexStar) and asks it for both.
//
// The cut counts never look at an edge. An output row is derivable on one
// side of a cut when all its constituent tuples originate there, so a
// distinct triangle whose R-, S- and T-tuple have c_R, c_S, c_T copies in
// a subtree contributes c_R·c_S·c_T rows below the subtree's edge and
// (n_R−c_R)(n_S−c_S)(n_T−c_T) above it; a star value contributes
// Π_j c_j and Π_j (n_j−c_j). The subtree counts of one triangle or value
// change only at the nodes of the virtual tree of its holders and are
// constant along each compressed chain of edges in between, so
// topology.CutSweep charges each triangle or value once, as one group of
// holders with a count per relation, and one subtree-sum yields (below,
// above) for every edge: O(N log N + V) for N indexed holders on a V-node
// tree, where filtering the placements by side and re-running the
// reference join per edge was O(|E|·N).

// RefStats summarizes a reference (centralized) evaluation of a multiway
// join: the exact output count, the matching checksum, and the maximum
// participation degree — the largest number of output rows any single
// input tuple occurs in, the denominator of the lowerbound.Multijoin
// covering argument.
type RefStats struct {
	Count    int64
	Checksum uint64
	MaxDeg   int64
}

// Verify checks a protocol run against a reference evaluation: the emitted
// row count and the output checksum must both match.
func Verify(ref RefStats, res *Result) error {
	if got := res.TotalOutputs(); got != ref.Count || res.Checksum != ref.Checksum {
		return fmt.Errorf("multijoin: emitted %d rows (checksum %x), reference has %d (%x)",
			got, res.Checksum, ref.Count, ref.Checksum)
	}
	return nil
}

// tcnt is a distinct tuple with its multiplicity.
type tcnt struct {
	t Tuple
	n int64
}

// holder is one fragment's copies of a distinct tuple.
type holder struct {
	frag int32 // position in the Placement, i.e. in ComputeNodes order
	n    int64
}

// relIndex lists one relation's distinct tuples in (A, B) order, each with
// its multiplicity and the fragments holding it.
type relIndex struct {
	tuples []tcnt
	off    []int32 // tuple i is held by hold[off[i]:off[i+1]]
	hold   []holder
}

func (ix *relIndex) holders(i int32) []holder { return ix.hold[ix.off[i]:ix.off[i+1]] }

// indexRelation builds p's relIndex; with swap the attributes trade places
// first, so the index is ordered by the relation's second attribute.
func indexRelation(p Placement, swap bool) relIndex {
	type rec struct {
		t    Tuple
		frag int32
	}
	total := 0
	for _, frag := range p {
		total += len(frag)
	}
	recs := make([]rec, 0, total)
	for i, frag := range p {
		for _, tp := range frag {
			if swap {
				tp = Tuple{A: tp.B, B: tp.A}
			}
			recs = append(recs, rec{tp, int32(i)})
		}
	}
	slices.SortFunc(recs, func(x, y rec) int {
		if c := cmpTuple(x.t, y.t); c != 0 {
			return c
		}
		return cmp.Compare(x.frag, y.frag)
	})
	var ix relIndex
	for i, r := range recs {
		if i == 0 || r.t != recs[i-1].t {
			ix.tuples = append(ix.tuples, tcnt{t: r.t})
			ix.off = append(ix.off, int32(len(ix.hold)))
		}
		if n := len(ix.hold); n == int(ix.off[len(ix.off)-1]) || ix.hold[n-1].frag != r.frag {
			ix.hold = append(ix.hold, holder{frag: r.frag})
		}
		ix.tuples[len(ix.tuples)-1].n++
		ix.hold[len(ix.hold)-1].n++
	}
	ix.off = append(ix.off, int32(len(ix.hold)))
	return ix
}

func cmpTuple(x, y Tuple) int {
	if x.A != y.A {
		return cmp.Compare(x.A, y.A)
	}
	return cmp.Compare(x.B, y.B)
}

// first reports the position of the first tuple whose A is at least a.
func (ix *relIndex) first(a uint64) int {
	return sort.Search(len(ix.tuples), func(i int) bool { return ix.tuples[i].t.A >= a })
}

// TriangleIndex is a triangle-join input indexed for reference evaluation
// and cut counting.
type TriangleIndex struct {
	r relIndex // distinct (b, a): R with its attributes swapped
	s relIndex // distinct (b, c)
	t relIndex // distinct (c, a)
}

// IndexTriangle indexes R(a,b), S(b,c), T(c,a).
func IndexTriangle(r, s, t Placement) *TriangleIndex {
	return &TriangleIndex{r: indexRelation(r, true), s: indexRelation(s, false), t: indexRelation(t, false)}
}

// each calls fn once per distinct output triangle with the positions of
// its R-, S- and T-tuple. For an S-tuple (b, c) the R-tuples with that b
// and the T-tuples with that c are both runs ordered by a, so the
// triangles through it are a merge of the two runs.
func (ix *TriangleIndex) each(fn func(ri, si, ti int32)) {
	rs, ts := ix.r.tuples, ix.t.tuples
	for si, sc := range ix.s.tuples {
		b, c := sc.t.A, sc.t.B
		ri, ti := ix.r.first(b), ix.t.first(c)
		for ri < len(rs) && rs[ri].t.A == b && ti < len(ts) && ts[ti].t.A == c {
			switch d := cmp.Compare(rs[ri].t.B, ts[ti].t.B); {
			case d < 0:
				ri++
			case d > 0:
				ti++
			default:
				fn(int32(ri), int32(si), int32(ti))
				ri++
				ti++
			}
		}
	}
}

// Reference evaluates the join centrally.
func (ix *TriangleIndex) Reference() RefStats {
	var st RefStats
	// Per-copy participation degrees of the distinct tuples.
	degR := make([]int64, len(ix.r.tuples))
	degS := make([]int64, len(ix.s.tuples))
	degT := make([]int64, len(ix.t.tuples))
	ix.each(func(ri, si, ti int32) {
		rc, sc, nt := ix.r.tuples[ri], ix.s.tuples[si], ix.t.tuples[ti].n
		st.Count += rc.n * sc.n * nt
		st.Checksum += tripleSig(rc.t.B, sc.t.A, sc.t.B) * uint64(rc.n*sc.n*nt)
		degR[ri] += sc.n * nt
		degS[si] += rc.n * nt
		degT[ti] += rc.n * sc.n
	})
	for _, degs := range [][]int64{degR, degS, degT} {
		for _, d := range degs {
			st.MaxDeg = max(st.MaxDeg, d)
		}
	}
	return st
}

// CutCounts reports, per edge of tr, how many output triangles are
// derivable entirely from the inputs on each side of the edge's cut — the
// "within" terms of lowerbound.Multijoin. All edges are counted here, in
// one sweep; the returned function is a table lookup.
func (ix *TriangleIndex) CutCounts(tr *topology.Tree) func(e topology.EdgeID) (below, above int64) {
	nodes := tr.ComputeNodes()
	sweep := topology.NewCutSweep(tr, 3)
	ix.each(func(ri, si, ti int32) {
		for slot, hs := range [3][]holder{ix.r.holders(ri), ix.s.holders(si), ix.t.holders(ti)} {
			for _, h := range hs {
				sweep.Add(nodes[h.frag], slot, h.n)
			}
		}
		sweep.EndGroup()
	})
	return cutTable(sweep.Cuts())
}

func cutTable(cuts []topology.Cut) func(e topology.EdgeID) (below, above int64) {
	return func(e topology.EdgeID) (int64, int64) { return cuts[e].Below, cuts[e].Above }
}

// TriangleReference evaluates R(a,b) ⋈ S(b,c) ⋈ T(c,a) centrally.
func TriangleReference(r, s, t Placement) RefStats { return IndexTriangle(r, s, t).Reference() }

// TriangleCutCounts is IndexTriangle(r, s, t).CutCounts(tr).
func TriangleCutCounts(tr *topology.Tree, r, s, t Placement) func(e topology.EdgeID) (below, above int64) {
	return IndexTriangle(r, s, t).CutCounts(tr)
}

// StarIndex is a star-join input indexed for reference evaluation and cut
// counting: one record per tuple, grouped by join value.
type StarIndex struct {
	k      int
	values []uint64  // distinct join values, in order of first appearance
	off    []int32   // value i's tuples are recs[off[i]:off[i+1]]
	recs   []starRec // relation-major, then fragment-major, within a value
}

type starRec struct {
	frag int32 // position in the relation's Placement
	rel  int32
}

// IndexStar indexes R_1(a,b_1), …, R_k(a,b_k).
func IndexStar(rels []Placement) *StarIndex {
	ix := &StarIndex{k: len(rels)}
	total := 0
	for _, rel := range rels {
		for _, frag := range rel {
			total += len(frag)
		}
	}
	id := make(map[uint64]int32)   // join value -> position in values
	ids := make([]int32, 0, total) // per tuple, in input order
	for _, rel := range rels {
		for _, frag := range rel {
			for _, tp := range frag {
				v, ok := id[tp.A]
				if !ok {
					v = int32(len(ix.values))
					id[tp.A] = v
					ix.values = append(ix.values, tp.A)
					ix.off = append(ix.off, 0)
				}
				ix.off[v]++
				ids = append(ids, v)
			}
		}
	}
	// Counting sort by value: sizes to end offsets, filled back to front.
	ix.off = append(ix.off, 0)
	sum := int32(0)
	for v, n := range ix.off {
		sum += n
		ix.off[v] = sum
	}
	ix.recs = make([]starRec, len(ids))
	next := len(ids)
	for j := len(rels) - 1; j >= 0; j-- {
		for i := len(rels[j]) - 1; i >= 0; i-- {
			for range rels[j][i] {
				next--
				ix.off[ids[next]]--
				ix.recs[ix.off[ids[next]]] = starRec{frag: int32(i), rel: int32(j)}
			}
		}
	}
	return ix
}

// each calls fn once per join value with the value's records.
func (ix *StarIndex) each(fn func(a uint64, recs []starRec)) {
	for v, a := range ix.values {
		fn(a, ix.recs[ix.off[v]:ix.off[v+1]])
	}
}

// Reference evaluates the join centrally. Its checksum fingerprints the
// per-value output counts (Σ_a Mix64(a)·rows(a)), the same quantity the
// Star protocol computes.
func (ix *StarIndex) Reference() RefStats {
	var st RefStats
	c := make([]int64, ix.k)
	ix.each(func(a uint64, recs []starRec) {
		clear(c)
		for _, r := range recs {
			c[r.rel]++
		}
		rows := int64(1)
		for _, n := range c {
			rows *= n
		}
		if rows == 0 {
			return
		}
		st.Count += rows
		st.Checksum += hashing.Mix64(a) * uint64(rows)
		// Degree of one tuple of relation j with value a: Π_{l≠j} cnt_l.
		for _, n := range c {
			st.MaxDeg = max(st.MaxDeg, rows/n)
		}
	})
	return st
}

// CutCounts is TriangleIndex.CutCounts for the star shape: one group per
// join value, one slot per relation.
func (ix *StarIndex) CutCounts(tr *topology.Tree) func(e topology.EdgeID) (below, above int64) {
	nodes := tr.ComputeNodes()
	sweep := topology.NewCutSweep(tr, ix.k)
	ix.each(func(_ uint64, recs []starRec) {
		for _, r := range recs {
			sweep.Add(nodes[r.frag], int(r.rel), 1)
		}
		sweep.EndGroup()
	})
	return cutTable(sweep.Cuts())
}

// StarReference evaluates the k-way star join centrally.
func StarReference(rels []Placement) RefStats { return IndexStar(rels).Reference() }

// StarCutCounts is IndexStar(rels).CutCounts(tr).
func StarCutCounts(tr *topology.Tree, rels []Placement) func(e topology.EdgeID) (below, above int64) {
	return IndexStar(rels).CutCounts(tr)
}
