package graph

import (
	"math/rand"
	"slices"
	"testing"

	"topompc/internal/netsim"
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
// from one collection to the next.
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
				x := e.Exchange()
				var sent []propPair
				for i := 1; i < homes; i++ {
					if pr.numProps(i) > 0 {
						sent = append(sent, pr.props(i)...)
						x.Out(nodes[i]).Send(nodes[0], tagProposeUp, pr.encodeProps(i))
					}
				}
				x.Execute()
				for i := range pr.arena {
					pr.arena[i].buf = pr.arena[i].buf[:0]
				}
				want := sortedMinima(pr.active[0], witness, sent...)
				pr.mergeProps(0, &pr.wscr[0], e.Inbox(nodes[0]))
				if got := pr.props(0); !slices.Equal(got, want) {
					t.Fatalf("witness=%v workers=%d iter %d: merged minima\n got %v\nwant %v",
						witness, workers, iter, got, want)
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
