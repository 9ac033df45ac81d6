package graph

import (
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

// sortedMinima is the oracle: both directed candidates of every edge (the
// witness halves zeroed in non-witness mode, where the wire drops them)
// plus any extra candidates, sorted, first per label kept.
func sortedMinima(edges []workEdge, witness bool, extra ...propPair) []propPair {
	all := slices.Clone(extra)
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

// TestStampedMinCombineMatchesSort runs the collection walk and the
// carrier merge against the sort oracle on seeded random homes: both
// modes, every worker count, the shard scratch reused from home to home and
// from one collection to the next. The merge of a first sweep also folds
// vertex entries, each kept once unless a merged proposal names it.
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
			for iter := 0; iter < 100; iter++ {
				nV := 2 + rng.Intn(40)
				pr.label = make([]int32, nV)
				for i := range pr.active {
					pr.active[i] = tiedEdges(rng, nV, rng.Intn(120))
				}
				pr.pool.Blocks("collect", homes, func(shard, lo, hi int) {
					for i := lo; i < hi; i++ {
						pr.collectNext(i, &pr.wscr[shard])
					}
				})
				for i := range pr.active {
					if got, want := pr.props(i), sortedMinima(pr.active[i], witness); !slices.Equal(got, want) {
						t.Fatalf("witness=%v workers=%d iter %d home %d: collected minima\n got %v\nwant %v",
							witness, workers, iter, i, got, want)
					}
				}

				// Every other home sends its list up to home 0, which merges.
				// On odd iterations the sweep is a first one: every home also
				// holds vertex entries, and home 0 must keep, once each, the
				// entries no merged proposal names.
				first := iter%2 == 1
				x := e.Exchange()
				var sent []propPair
				entries := map[int32]bool{}
				for i := 0; i < homes; i++ {
					pr.scr[i].need = pr.scr[i].need[:0]
					if first {
						for k := rng.Intn(8); k > 0; k-- {
							v := int32(rng.Intn(nV))
							entries[v] = true
							pr.scr[i].need = append(pr.scr[i].need, v)
						}
						pr.scr[i].need = pr.sortDedup(i, pr.scr[i].need)
					}
					if i == 0 {
						continue
					}
					if pr.numProps(i) > 0 {
						sent = append(sent, pr.props(i)...)
						x.Out(nodes[i]).Send(nodes[0], tagProposeUp, pr.encodeProps(i))
					}
					if len(pr.scr[i].need) > 0 {
						x.Out(nodes[i]).Send(nodes[0], tagVertexUp, pr.encodeIndices(i, pr.scr[i].need))
					}
				}
				x.Execute()
				for i := range pr.arena {
					pr.arena[i].buf = pr.arena[i].buf[:0]
				}
				want := sortedMinima(pr.active[0], witness, sent...)
				pr.mergeProps(0, &pr.wscr[0], e.Inbox(nodes[0]), first)
				if got := pr.props(0); !slices.Equal(got, want) {
					t.Fatalf("witness=%v workers=%d iter %d: merged minima\n got %v\nwant %v",
						witness, workers, iter, got, want)
				}
				if first {
					for _, p := range want {
						delete(entries, int32(p.k1>>32))
					}
					wantLone := slices.Sorted(maps.Keys(entries))
					if got := pr.scr[0].need; !slices.Equal(got, wantLone) {
						t.Fatalf("witness=%v workers=%d iter %d: merged vertex entries\n got %v\nwant %v",
							witness, workers, iter, got, wantLone)
					}
				}
			}
		}
	}
}

// TestRadixSortInt32 is the differential table of the radix that orders
// the combined labels (and every other index list of the contraction),
// against slices.Sort: around the small-list cutoff and at a size with
// three live byte lanes, with values that differ in one lane only or in
// one entry only (the skipped-lane paths, an odd and an even number of live
// passes).
func TestRadixSortInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []struct {
		name  string
		value func(j, n int) int32
	}{
		{"spread", func(_, n int) int32 { return int32(rng.Intn(max(n, 1))) }},
		{"low byte only", func(int, int) int32 { return int32(rng.Intn(256)) }},
		{"third byte only", func(int, int) int32 { return int32(rng.Intn(4)) << 16 }},
		{"all equal", func(int, int) int32 { return 7 }},
		{"all equal but one", func(j, n int) int32 {
			if j == n/2 {
				return 0
			}
			return 70_000
		}},
		{"descending", func(j, n int) int32 { return int32(n - j) }},
		{"top lane", func(int, int) int32 { return int32(rng.Uint32() >> 1) }},
	}
	for _, sh := range shapes {
		for _, n := range []int{0, 1, 63, 64, 65, 70_000} {
			got := make([]int32, n)
			for j := range got {
				got[j] = sh.value(j, n)
			}
			want := slices.Clone(got)
			slices.Sort(want)
			if got, _ = radixSortInt32(got, nil); !slices.Equal(got, want) {
				t.Fatalf("%s, n=%d: radix order differs from slices.Sort", sh.name, n)
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
