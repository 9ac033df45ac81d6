package multijoin

import (
	"slices"

	"topompc/internal/core/place"
	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// Triangle computes R(a,b) ⋈ S(b,c) ⋈ T(c,a) with the topology-aware
// HyperCube shuffle: shares g_a × g_b × g_c (product ≤ p), grid cells
// apportioned over the compute nodes proportionally to their bandwidth
// Capacities and laid out contiguously along the tree preorder. Every
// R-tuple is multicast to the owners of its (h_a(a), h_b(b), *) slab, and
// symmetrically for S and T; each output triangle is produced at exactly
// one cell, so no deduplication round is needed. One communication round.
func Triangle(t *topology.Tree, r, s, tt Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return triangle(t, r, s, tt, seed, true, opts)
}

// TriangleFlat is the topology-oblivious baseline: the identical HyperCube
// protocol with uniformly weighted cells assigned in compute-node order,
// as on a flat network.
func TriangleFlat(t *topology.Tree, r, s, tt Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return triangle(t, r, s, tt, seed, false, opts)
}

func triangle(tr *topology.Tree, r, s, tt Placement, seed uint64, aware bool, opts []netsim.Option) (*Result, error) {
	for j, rel := range [3]Placement{r, s, tt} {
		if err := checkPlacement(tr, string("RST"[j]), rel); err != nil {
			return nil, err
		}
	}
	p := tr.NumCompute()
	nodes := tr.ComputeNodes()
	shares := BalancedShares(p, 3)
	ga, gb, gc := shares[0], shares[1], shares[2]
	numCells := ga * gb * gc

	var weights []float64
	var order []int
	if aware {
		weights = place.Capacities(tr)
		order = place.PreorderComputeIndices(tr)
	} else {
		weights = place.Uniform(p)
		order = place.IdentityOrder(p)
	}
	layout, err := place.AssignCells(numCells, weights, order)
	if err != nil {
		return nil, err
	}
	// Destination lists per slab: R-tuples with coords (ia, ib) go to the
	// owners of cells (ia, ib, *); S to (*, ib, ic); T to (ia, *, ic). cell
	// names the slab's cell at each coordinate of the free dimension. Owner
	// lists are deduplicated once and shared read-only by all planning
	// goroutines.
	slabOwners := func(slabs, free int, cell func(slab, k int) int) [][]topology.NodeID {
		dst := make([][]topology.NodeID, slabs)
		for slab := range dst {
			seen := make(map[int32]bool, free)
			for k := 0; k < free; k++ {
				if o := layout.Owner[cell(slab, k)]; !seen[o] {
					seen[o] = true
					dst[slab] = append(dst[slab], nodes[o])
				}
			}
		}
		return dst
	}
	ha := hashing.NewHasher(seed + 0xA11CE)
	hb := hashing.NewHasher(seed + 0xB0B)
	hc := hashing.NewHasher(seed + 0xC0C0A)
	ca := func(x uint64) int { return int(ha.Hash(x) % uint64(ga)) }
	cb := func(x uint64) int { return int(hb.Hash(x) % uint64(gb)) }
	cc := func(x uint64) int { return int(hc.Hash(x) % uint64(gc)) }
	// The cell loop below matches S against R on b and the pair against T on
	// (c, a), so the homes order R by (b, a) — its attributes traded — and S
	// and T as they are.
	rels := [3]slabbed{
		{tag: netsim.TagR, byB: true, slab: func(t Tuple) int { return ca(t.A)*gb + cb(t.B) },
			dst: slabOwners(ga*gb, gc, func(slab, k int) int { return slab*gc + k })},
		{tag: netsim.TagS, slab: func(t Tuple) int { return cb(t.A)*gc + cc(t.B) },
			dst: slabOwners(gb*gc, ga, func(slab, k int) int { return k*gb*gc + slab })},
		{tag: netsim.TagT, slab: func(t Tuple) int { return ca(t.B)*gc + cc(t.A) },
			dst: slabOwners(ga*gc, gb, func(slab, k int) int { return (slab/gc*gb+k)*gc + slab%gc })},
	}

	e := netsim.NewEngine(tr, opts...)
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := tr.ComputeIndex(v)
		// One multicast per slab to the slab's owners, slabs in first-seen
		// order (deterministic for a fixed fragment order).
		for j, frag := range [3][]Tuple{r[i], s[i], tt[i]} {
			rel := &rels[j]
			slab := make([]int32, len(frag))
			for k, tp := range frag {
				slab[k] = int32(rel.slab(tp))
			}
			place.Scatter(out, rel.tag, words(frag), 2, slab, len(rel.dst), place.Targets{
				Vector: func(k int, _ []uint64) []topology.NodeID { return rel.dst[k] }, FirstSeen: true})
		}
	})
	x.Execute()

	// Owned cells per node.
	owned := make([][]int, p)
	for cell, o := range layout.Owner {
		owned[o] = append(owned[o], cell)
	}

	res := &Result{
		PerNode:      make([]int64, p),
		Sample:       make([][]Triple, p),
		Shares:       shares,
		CellsPerNode: layout.PerNode,
	}
	scratch := make([]triangleScratch, e.Pool().Workers())
	// The checksum is the shards' shares added in shard order; wrapping
	// addition, so the same total at every worker count.
	res.Checksum = uint64(e.Pool().Sum("multijoin local", p, func(shard, lo, hi int) int64 {
		sc := &scratch[shard]
		var sum uint64
		for i := lo; i < hi; i++ {
			for j := range rels {
				sc.receive(e.Inbox(nodes[i]), &rels[j], &sc.rel[j])
			}
			R, S, T := &sc.rel[0], &sc.rel[1], &sc.rel[2]
			for _, cell := range owned[i] {
				ic := cell % gc
				ib := (cell / gc) % gb
				ia := cell / (gb * gc)
				// S walks its slab by (b, c); R's slab is by (b, a), so the run
				// [rLo, rHi) of R-tuples sharing S's b only moves forward; T's
				// slab is by (c, a).
				rEnd := int(R.off[ia*gb+ib+1])
				rLo, rHi := int(R.off[ia*gb+ib]), int(R.off[ia*gb+ib])
				tLo, tEnd := int(T.off[ia*gc+ic]), int(T.off[ia*gc+ic+1])
				sLo, sEnd := int(S.off[ib*gc+ic]), int(S.off[ib*gc+ic+1])
				for si := sLo; si < sEnd; si++ {
					b, c := S.x[si], S.y[si]
					if si == sLo || b != S.x[si-1] {
						rLo = rHi
						for rLo < rEnd && R.x[rLo] < b {
							rLo++
						}
						rHi = rLo
						for rHi < rEnd && R.x[rHi] == b {
							rHi++
						}
					}
					if rLo == rHi {
						continue
					}
					// The R run and T's tuples of c both ascend by a: merge.
					ti, _ := slices.BinarySearch(T.x[tLo:tEnd], c)
					ti += tLo
					for ri := rLo; ri < rHi && ti < tEnd && T.x[ti] == c; ri++ {
						a := R.y[ri]
						for ti < tEnd && T.x[ti] == c && T.y[ti] < a {
							ti++
						}
						if ti == tEnd || T.x[ti] != c || T.y[ti] != a {
							continue
						}
						cnt := R.n[ri] * S.n[si] * T.n[ti]
						res.PerNode[i] += cnt
						sum += tripleSig(a, b, c) * uint64(cnt)
						if len(res.Sample[i]) < SampleLimit {
							res.Sample[i] = append(res.Sample[i], Triple{A: a, B: b, C: c})
						}
					}
				}
			}
		}
		return int64(sum)
	}))
	res.Report = e.Report()
	return res, nil
}

// slabbed is how one relation of the triangle travels and is received.
type slabbed struct {
	tag  netsim.Tag
	dst  [][]topology.NodeID // per slab: the owners of its cells
	slab func(t Tuple) int   // the slab a tuple hashes to
	byB  bool                // homes order the relation by (B, A), not (A, B)
}

// received is one relation as a home holds it: the distinct tuples with
// their multiplicities, by slab — slab k is [off[k], off[k+1]) — and within
// a slab ascending by (x, y), the tuple's attributes in the order the cell
// loop matches them.
type received struct {
	x, y []uint64
	n    []int64
	off  []int32
}

// triangleScratch is one pool shard's working lanes for the per-home
// triangle join.
type triangleScratch struct {
	raw, x, y, tx, ty []uint64
	slab              []int32
	rel               [3]received
}

// receive drains one relation from the home's inbox into out: the tuples
// are sorted by (x, y), equal ones folded into one with a count, and the
// stable counting pass of par.Layout groups them by slab.
func (sc *triangleScratch) receive(ib netsim.Inbox, rel *slabbed, out *received) {
	sc.raw = ib.AppendKeys(sc.raw[:0], rel.tag)
	m := len(sc.raw) / 2
	x, y := slices.Grow(sc.x[:0], m)[:m], slices.Grow(sc.y[:0], m)[:m]
	for j := range x {
		x[j], y[j] = sc.raw[2*j], sc.raw[2*j+1]
		if rel.byB {
			x[j], y[j] = y[j], x[j]
		}
	}
	y, x, sc.ty, sc.tx = par.SortPairs(y, x, sc.ty, sc.tx)
	x, y, sc.tx, sc.ty = par.SortPairs(x, y, sc.tx, sc.ty)
	sc.x, sc.y = x, y

	// Fold repeats in place (the count rides in raw, free again) and note
	// each distinct tuple's slab.
	count := sc.raw[:0]
	sc.slab = sc.slab[:0]
	d := 0
	for j := 0; j < m; j++ {
		if d > 0 && x[j] == x[d-1] && y[j] == y[d-1] {
			count[d-1]++
			continue
		}
		t := Tuple{A: x[j], B: y[j]}
		if rel.byB {
			t = Tuple{A: y[j], B: x[j]}
		}
		sc.slab = append(sc.slab, int32(rel.slab(t)))
		x[d], y[d] = x[j], y[j]
		count = append(count, 1)
		d++
	}
	var pos []int32
	pos, out.off = par.Layout(sc.slab, len(rel.dst))
	out.x, out.y, out.n = slices.Grow(out.x[:0], d)[:d], slices.Grow(out.y[:0], d)[:d], slices.Grow(out.n[:0], d)[:d]
	for j, at := range pos {
		out.x[at], out.y[at], out.n[at] = x[j], y[j], int64(count[j])
	}
}
