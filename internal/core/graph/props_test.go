package graph

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/par"
)

// The comparator sort the proposal path used to run, kept as the oracle of
// the stamped min-combine: sort every candidate by (k1, k2) and keep the
// first entry of each run of equal labels.

func cmpPropPair(x, y propPair) int {
	if x.k1 != y.k1 {
		if x.k1 < y.k1 {
			return -1
		}
		return 1
	}
	if x.k2 != y.k2 {
		if x.k2 < y.k2 {
			return -1
		}
		return 1
	}
	return 0
}

// compactMinPairs keeps the first (minimal) entry per label of a sorted
// pair slice.
func compactMinPairs(prs []propPair) []propPair {
	out := prs[:0]
	var last uint64
	for i, p := range prs {
		a := p.k1 >> 32
		if i == 0 || a != last {
			out = append(out, p)
			last = a
		}
	}
	return out
}

// sortedMinima is the oracle of a holder's minima: both directed
// candidates of every edge (the witness halves zeroed in non-witness mode,
// where the minima are bare keys), sorted, first per label kept.
func sortedMinima(edges []workEdge, witness bool) []propPair {
	var all []propPair
	for _, ed := range edges {
		var w uint64
		if witness {
			w = uint64(uint32(ed.wu))<<32 | uint64(uint32(ed.wv))
		}
		all = append(all,
			propPair{k1: uint64(uint32(ed.a))<<32 | uint64(uint32(ed.b)), k2: w},
			propPair{k1: uint64(uint32(ed.b))<<32 | uint64(uint32(ed.a)), k2: w})
	}
	slices.SortFunc(all, cmpPropPair)
	return compactMinPairs(all)
}

// offerSelf clamps every entry's b at its label, as a witness-mode holder
// offers: a label whose least neighbor is larger offers itself.
func offerSelf(ps []propPair) []propPair {
	for k, p := range ps {
		if a := p.k1 >> 32; p.k1&0xFFFFFFFF > a {
			ps[k].k1 = a<<32 | a
		}
	}
	return ps
}

// firstMinima is the oracle of a carrier's merge: of the candidates, in the
// order offered, it keeps per label the first with the least b, and returns
// them label-ascending.
func firstMinima(cands []propPair) []propPair {
	best := map[uint64]propPair{}
	for _, p := range cands {
		if q, ok := best[p.k1>>32]; !ok || uint32(p.k1) < uint32(q.k1) {
			best[p.k1>>32] = p
		}
	}
	out := make([]propPair, 0, len(best))
	for _, a := range slices.Sorted(maps.Keys(best)) {
		out = append(out, best[a])
	}
	return out
}

// componentMinima is the oracle of the non-witness offer rule, at a holder
// and at a carrier alike: given entries a<<32|b (both directions of every
// edge at a holder), it returns, label-ascending, one entry per label that
// leads some entry, whose b is the least label of its component in the
// graph the entries span. Components come from label propagation to a
// fixpoint over the entries sorted by their smaller end, with no
// union-find.
func componentMinima(entries []propPair) []propPair {
	es := make([][2]uint32, 0, len(entries))
	low := map[uint32]uint32{}
	var keys []uint32
	for _, p := range entries {
		a, b := uint32(p.k1>>32), uint32(p.k1)
		es = append(es, [2]uint32{min(a, b), max(a, b)})
		low[a], low[b], keys = a, b, append(keys, a)
	}
	slices.SortFunc(es, func(x, y [2]uint32) int { return cmp.Compare(x[0], y[0]) })
	for changed := true; changed; {
		changed = false
		for _, e := range es {
			if m := min(low[e[0]], low[e[1]]); low[e[0]] != m || low[e[1]] != m {
				low[e[0]], low[e[1]], changed = m, m, true
			}
		}
	}
	slices.Sort(keys)
	out := make([]propPair, 0, len(keys))
	for _, a := range slices.Compact(keys) {
		out = append(out, propPair{k1: uint64(a)<<32 | uint64(low[a])})
	}
	return out
}

// holderEntries lists both directions of every edge as bare entries.
func holderEntries(edges []workEdge) []propPair {
	var out []propPair
	for _, ed := range edges {
		out = append(out,
			propPair{k1: uint64(uint32(ed.a))<<32 | uint64(uint32(ed.b))},
			propPair{k1: uint64(uint32(ed.b))<<32 | uint64(uint32(ed.a))})
	}
	return out
}

// tiedEdges draws m active edges over nV labels whose witnesses come from
// three values per half, so many candidates of a label tie on b, and many
// of those on (b, wu) too.
func tiedEdges(rng *rand.Rand, nV, m int) []workEdge {
	edges := make([]workEdge, 0, m)
	for len(edges) < m {
		a, b := int32(rng.Intn(nV)), int32(rng.Intn(nV))
		if a == b {
			continue
		}
		edges = append(edges, workEdge{a: a, b: b, wu: int32(rng.Intn(3)), wv: int32(rng.Intn(3))})
	}
	return edges
}

// props reads node i's proposal minima as pairs in either mode.
func (pr *proto) props(i int) []propPair {
	if pr.witness {
		return pr.scr[i].pairs
	}
	out := make([]propPair, len(pr.scr[i].k1s))
	for j, k := range pr.scr[i].k1s {
		out[j] = propPair{k1: k}
	}
	return out
}

// TestStampedMinCombineMatchesSort runs the collection walk and the carrier
// merge against their oracles on seeded random homes: both modes, every
// worker count, the shard scratch reused from home to home and from one
// collection to the next. In witness mode the walk is held to the sort
// oracle, each b clamped at its label (offerSelf), and the merge to
// firstMinima: a holder's minima keep its least witness edge; the
// carrier's merge keeps, per label, the least b first offered — its own
// entry, then its members' in inbox order — and that entry's source: its
// own, or the askBuf position of the member entry. Otherwise both are held
// to componentMinima: the stamped union-find gives every label the least
// label of its component, over the holder's edges or over the carrier's
// own and its members' entries. The merge also folds the 1-word entries —
// vertex entries in a first sweep, need entries later — each kept once
// unless a merged proposal names it, and records every proposal and need
// message for the answer.
func TestStampedMinCombineMatchesSort(t *testing.T) {
	tree := testTrees(t)["star"]
	nodes := tree.ComputeNodes()
	homes := len(nodes)
	for _, witness := range []bool{true, false} {
		for _, workers := range []int{1, 2, 8} {
			rng := rand.New(rand.NewSource(int64(31 + workers)))
			e := netsim.NewEngine(tree, netsim.WithWorkers(workers))
			pr := &proto{
				e: e, nodes: nodes, witness: witness, pool: e.Pool(),
				active:     make([][]workEdge, homes),
				homedVerts: make([][]int32, homes),
				scr:        make([]nodeScratch, homes),
				arena:      make([]payloadSlab, homes),
				wscr:       make([]collectScratch, e.Pool().Workers()),
			}
			split := 0 // non-witness merges whose entries span several components
			for iter := 0; iter < 100; iter++ {
				nV := 2 + rng.Intn(40)
				pr.label = make([]int32, nV)
				for i := range pr.active {
					m := rng.Intn(120)
					if !witness {
						// About nV edges over all the homes, so the carrier
						// merges several components.
						m %= nV/homes + 2
					}
					pr.active[i] = tiedEdges(rng, nV, m)
				}
				pr.pool.Blocks("collect", homes, func(shard, lo, hi int) {
					for i := lo; i < hi; i++ {
						pr.collectNext(i, &pr.wscr[shard], nil)
					}
				})
				for i := range pr.active {
					want := componentMinima(holderEntries(pr.active[i]))
					if witness {
						want = offerSelf(sortedMinima(pr.active[i], witness))
					}
					if got := pr.props(i); !slices.Equal(got, want) {
						t.Fatalf("witness=%v workers=%d iter %d home %d: collected minima\n got %v\nwant %v",
							witness, workers, iter, i, got, want)
					}
				}

				// Every other home sends its list up to home 0, which merges.
				// Every home also holds 1-word entries, and home 0 must keep,
				// once each, the entries no merged proposal names. On odd
				// iterations the sweep is a first one and they are vertex
				// entries, which get no answer; otherwise they are need
				// entries, and home 0 records them with the proposals.
				first := iter%2 == 1
				entryUp := tagNeedUp
				if first {
					entryUp = tagVertexUp
				}
				x := e.Exchange()
				cands := slices.Clone(pr.props(0))
				pos := 0 // askBuf position at home 0 of the next message's first label
				entries := map[int32]bool{}
				answered := 0
				for i := 0; i < homes; i++ {
					pr.scr[i].need = pr.scr[i].need[:0]
					for k := rng.Intn(8); k > 0; k-- {
						v := int32(rng.Intn(nV))
						entries[v] = true
						pr.scr[i].need = append(pr.scr[i].need, v)
					}
					pr.scr[i].need = pr.sortDedup(i, pr.scr[i].need)
					if i == 0 {
						continue
					}
					if pr.numProps(i) > 0 {
						for _, p := range pr.props(i) {
							if witness {
								p.k2 = fromAsk | uint64(pos)
							}
							cands = append(cands, p)
							pos++
						}
						x.Out(nodes[i]).Send(nodes[0], tagProposeUp, pr.encodeProps(i))
						answered++
					}
					if len(pr.scr[i].need) > 0 {
						x.Out(nodes[i]).Send(nodes[0], entryUp, pr.encodeIndices(i, pr.scr[i].need))
						if !first {
							pos += len(pr.scr[i].need)
							answered++
						}
					}
				}
				x.Execute()
				for i := range pr.arena {
					pr.arena[i].buf = pr.arena[i].buf[:0]
				}
				want := componentMinima(cands)
				if witness {
					want = firstMinima(cands)
				} else if roots := map[uint32]bool{}; len(want) > 0 {
					for _, p := range want {
						roots[uint32(p.k1)] = true
					}
					if len(roots) > 1 {
						split++
					}
				}
				pr.mergeProps(0, 0, &pr.wscr[0], e.Inbox(nodes[0]))
				if got := pr.props(0); !slices.Equal(got, want) {
					t.Fatalf("witness=%v workers=%d iter %d: merged minima\n got %v\nwant %v",
						witness, workers, iter, got, want)
				}
				for _, p := range want {
					delete(entries, int32(p.k1>>32))
				}
				wantLone := slices.Sorted(maps.Keys(entries))
				if got := pr.scr[0].need; !slices.Equal(got, wantLone) {
					t.Fatalf("witness=%v workers=%d iter %d (first %v): merged entries\n got %v\nwant %v",
						witness, workers, iter, first, got, wantLone)
				}
				if got := len(pr.scr[0].asked); got != answered {
					t.Fatalf("witness=%v workers=%d iter %d (first %v): recorded %d messages to answer, want %d",
						witness, workers, iter, first, got, answered)
				}
			}
			if !witness && split < 50 {
				t.Fatalf("workers=%d: %d of 100 merges spanned several components, want at least 50", workers, split)
			}
		}
	}
}

// TestSortIndices holds both sides of sortIndices to slices.Sort +
// slices.Compact: lists that are empty, all one value, or hold the word
// edges 0, 63, 64 and the universe's last index, at lengths on both sides of
// the bitmap's word count, with the scratch reused across universes. The
// bitmap must come back zero, and its side must write into the list's own
// array.
func TestSortIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var bm []uint64
	var tmp []int32
	for _, nV := range []int{1, 64, 65, 200, 4096, 70_000} {
		words := (nV + 63) / 64
		for _, n := range []int{0, 1, words - 1, words, words + 1, 3 * nV} {
			for _, sh := range []struct {
				name  string
				value func(j int) int32
			}{
				{"spread", func(int) int32 { return int32(rng.Intn(nV)) }},
				{"all one", func(int) int32 { return int32(nV - 1) }},
				{"word edges", func(j int) int32 { return min([]int32{0, 63, 64, int32(nV - 1)}[j%4], int32(nV-1)) }},
				{"low word", func(int) int32 { return int32(rng.Intn(min(nV, 64))) }},
			} {
				name := sh.name
				got := make([]int32, n)
				for j := range got {
					got[j] = sh.value(j)
				}
				want := slices.Compact(slices.Sorted(slices.Values(got)))
				in := got
				got = sortIndices(got, nV, &bm, &tmp)
				if !slices.Equal(got, want) {
					t.Fatalf("nV=%d n=%d %s: got %v, want %v", nV, n, name, got, want)
				}
				if n >= words && n > 0 && &got[0] != &in[0] {
					t.Fatalf("nV=%d n=%d %s: the bitmap side did not write into the list's array", nV, n, name)
				}
				if i := slices.IndexFunc(bm, func(w uint64) bool { return w != 0 }); i >= 0 {
					t.Fatalf("nV=%d n=%d %s: bitmap word %d left set", nV, n, name, i)
				}
			}
		}
	}
}

// TestRenumberPaths holds both renumbering paths to the sorted distinct
// endpoints and the direct table the parent built from them: dense ids,
// hashed 64-bit ids (the radix side only — a bitmap up to 2⁶⁴ is not an
// option), a single vertex, id 0 alone, a sparse spread that keeps no table,
// and edgeless placements, at 1, 2 and 8 workers over fragments that may be
// fewer than the workers; renumber, whichever side it picks, must agree.
func TestRenumberPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func(frags, m int, id func() uint64) Placement {
		pl := make(Placement, frags)
		for k := 0; k < m; k++ {
			i := rng.Intn(frags)
			pl[i] = append(pl[i], Edge{U: id(), V: id()})
		}
		return pl
	}
	cases := []struct {
		name    string
		pl      Placement
		bitmap  bool // the dense ids make the bitmap side possible
		tabled  bool // the parent built the direct table
		wantIDs int  // distinct ids, -1 for "don't check"
	}{
		{"dense", gen(16, 3000, func() uint64 { return uint64(rng.Intn(2000)) }), true, true, -1},
		{"dense, few fragments", gen(1, 500, func() uint64 { return uint64(rng.Intn(700)) }), true, true, -1},
		{"hashed", gen(16, 3000, func() uint64 { return hashing.Mix64(uint64(rng.Intn(2000)) + 1) }), false, false, -1},
		{"sparse", gen(4, 50, func() uint64 { return uint64(rng.Intn(1 << 20)) }), true, false, -1},
		{"single vertex", Placement{nil, {{U: 9, V: 9}, {U: 9, V: 9}}, nil}, true, true, 1},
		{"id 0", Placement{{{U: 0, V: 0}}}, true, true, 1},
		{"edgeless", make(Placement, 5), true, false, 0},
		{"no fragments", Placement{}, true, false, 0},
	}
	for _, c := range cases {
		var all []uint64
		var maxID uint64
		for _, frag := range c.pl {
			for _, ed := range frag {
				all = append(all, ed.U, ed.V)
				maxID = max(maxID, ed.U, ed.V)
			}
		}
		wantIDs := slices.Compact(slices.Sorted(slices.Values(all)))
		if c.wantIDs >= 0 && len(wantIDs) != c.wantIDs {
			t.Fatalf("%s: fixture has %d distinct ids, want %d", c.name, len(wantIDs), c.wantIDs)
		}
		var wantTable []int32
		if c.tabled {
			wantTable = make([]int32, maxID+1)
			for k, x := range wantIDs {
				wantTable[x] = int32(k)
			}
		}
		check := func(path string, workers int, ids []uint64, table []int32) {
			t.Helper()
			if !slices.Equal(ids, wantIDs) {
				t.Fatalf("%s, %s, %d workers: ids %v, want %v", c.name, path, workers, ids, wantIDs)
			}
			if !slices.Equal(table, wantTable) || (table == nil) != (wantTable == nil) {
				t.Fatalf("%s, %s, %d workers: table %v, want %v", c.name, path, workers, table, wantTable)
			}
		}
		for _, workers := range []int{1, 2, 8} {
			pool := par.New(workers)
			ids, table := renumberSort(pool, c.pl, maxID)
			check("radix", workers, ids, table)
			if c.bitmap {
				ids, table = renumberMarks(pool, c.pl, maxID)
				check("bitmap", workers, ids, table)
			}
			ids, table = renumber(pool, c.pl)
			check("renumber", workers, ids, table)
		}
	}
}
