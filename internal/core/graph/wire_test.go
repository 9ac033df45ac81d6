package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// checkWitnessWire runs the map oracle's min-neighbor cc — cc's wire under
// spanforest's offer rule — and spanforest phase by phase as contract does,
// on the same edges, and holds spanforest's rounds to the oracle's: as many
// rounds, the same number of messages in each, the same elements in every
// propose and jump round, and in each answer round exactly Σ⌈n/64⌉ more —
// one won bitmap per proposal message of n entries that the round answers,
// as sweepModel counts them. No witness word travels anywhere else. The
// driven run must equal the entry point's, rounds and forest; it is
// returned.
func checkWitnessWire(t *testing.T, name string, tr *topology.Tree, pl Placement, seed uint64) *Result {
	t.Helper()
	cc, err := runMaps(tr, pl, seed, true, false, false, nil)
	if err != nil {
		t.Fatalf("%s: min-neighbor cc: %v", name, err)
	}
	want, err := forestContraction(tr, pl, seed)
	if err != nil {
		t.Fatalf("%s: spanforest: %v", name, err)
	}
	pr, err := newProto(tr, pl, seed, variant{aware: true, witness: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	L := len(pr.steps)
	var extra []int64 // per round: the won-bitmap words spanforest adds
	pad := func() {
		for len(extra) < pr.e.Report().NumRounds() {
			extra = append(extra, 0)
		}
	}
	pr.collectFirst()
	if pr.totalActive() == 0 {
		pr.propose()
	}
	phases := 0
	for pr.totalActive() > 0 {
		phases++
		pr.phase = int32(phases)
		sent, _ := sweepModel(pr, phases == 1)
		pr.propose()
		if err := pr.jump(pr.hook()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pad()
		for s := L; s >= 0; s-- {
			pr.answerStage(s)
			var words int64
			for _, ms := range sent[s] {
				for _, m := range ms {
					if m.kind == sentProps {
						words += int64(len(m.labels)+63) / 64
					}
				}
			}
			extra = append(extra, words)
		}
		if err := pr.planFailure(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := pr.relabel(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	pad()
	got := pr.assemble(phases, want.Strategy)
	if g, w := serializeReport(got.Report), serializeReport(want.Report); g != w || !slices.Equal(got.Forest, want.Forest) {
		t.Fatalf("%s: the driven spanforest differs from the entry point's", name)
	}
	sf, c := got.Report.Rounds, cc.Report.Rounds
	if len(sf) != len(c) {
		t.Fatalf("%s: spanforest ran %d rounds, min-neighbor cc %d", name, len(sf), len(c))
	}
	for r := range sf {
		if sf[r].Messages != c[r].Messages {
			t.Fatalf("%s: round %d: spanforest sent %d messages, min-neighbor cc %d", name, r, sf[r].Messages, c[r].Messages)
		}
		if d := sf[r].Elements - c[r].Elements; d != extra[r] {
			t.Fatalf("%s: round %d: spanforest sent %d elements more than min-neighbor cc, its won bitmaps are %d",
				name, r, d, extra[r])
		}
	}
	return got
}

// goldenTrees builds the golden grid's fixture topologies, the fixtureTopos
// of the module root's harness_test.go, by name.
func goldenTrees(t *testing.T) []namedTree {
	t.Helper()
	fromGraph := func(g *topology.Graph, err error) (*topology.Tree, error) {
		if err != nil {
			return nil, err
		}
		return topology.FromGraph(g)
	}
	var out []namedTree
	for _, f := range []struct {
		name  string
		build func() (*topology.Tree, error)
	}{
		{"star-uniform", func() (*topology.Tree, error) { return topology.Star([]float64{2, 2, 2, 2, 2, 2, 2, 2}) }},
		{"twotier-skew", func() (*topology.Tree, error) { return topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16) }},
		{"fattree", func() (*topology.Tree, error) { return topology.FatTree(2, 3, 2, 3) }},
		{"caterpillar", func() (*topology.Tree, error) { return topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4) }},
		{"fattree-taper", func() (*topology.Tree, error) { return topology.FatTree(3, 2, 16, 0.25) }},
		{"caterpillar-grade", func() (*topology.Tree, error) { return topology.Caterpillar([]float64{8, 3, 0.5, 3, 8}, 8) }},
		{"mesh", func() (*topology.Tree, error) { return fromGraph(topology.Mesh(3, 4, 2.5)) }},
		{"ring-of-racks", func() (*topology.Tree, error) { return fromGraph(topology.RingOfRacks(4, 2, 3, 8)) }},
		{"clos", func() (*topology.Tree, error) { return fromGraph(topology.Clos(2, 3, 2, 4, 10)) }},
	} {
		tr, err := f.build()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		out = append(out, namedTree{f.name, tr})
	}
	return out
}

type namedTree struct {
	name string
	tree *topology.Tree
}

// goldenSpanforestInput rebuilds the input the golden grid hands spanforest
// on topology topo under placement place (harness_test.go's fixtureInput
// through cliutil.TaskData): G(800, 2400/C(800,2)) drawn and shuffled from
// the seed hashed from the task, topology and placement names, placed
// evenly or Zipf(1.2) over p nodes, one packed edge u<<32|v per key.
func goldenSpanforestInput(t *testing.T, topo, place string, p int) (Placement, uint64) {
	t.Helper()
	h := fnv.New64a()
	for _, part := range []string{"spanforest", topo, place} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	seed := h.Sum64()
	rng := rand.New(rand.NewSource(int64(seed)))
	const n, verts = 2400, 800
	keys, err := dataset.GNP(rng, verts, float64(n)/(verts*(verts-1)/2))
	if err != nil {
		t.Fatal(err)
	}
	dataset.Shuffle(rng, keys)
	var frags dataset.Placement
	if place == "zipf" {
		frags, err = dataset.SplitZipf(rand.New(rand.NewSource(int64(seed))), keys, p, 1.2)
	} else {
		frags, err = dataset.SplitUniform(keys, p)
	}
	if err != nil {
		t.Fatal(err)
	}
	pl := make(Placement, p)
	for i, frag := range frags {
		for _, k := range frag {
			pl[i] = append(pl[i], Edge{U: k >> 32, V: k & 0xFFFFFFFF})
		}
	}
	return pl, seed
}

// TestSpanForestWireIsCCWire holds spanforest's contraction wire to cc's
// under the min-neighbor offer rule plus the won bitmaps (checkWitnessWire)
// on every golden fixture — each rebuilt input pinned, through the planned
// SpanningForest, to its row of the module's testdata/golden_costs.json,
// so the rebuild cannot drift from the grid, and where the planner keeps
// the contraction that row is the contraction's — on every topotest shape,
// and on the two-level combining fixture whose answers carry bitmaps of
// several words.
func TestSpanForestWireIsCCWire(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "golden_costs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct {
		Rounds   int     `json:"rounds"`
		Cost     float64 `json:"cost"`
		Elements int64   `json:"elements"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, nt := range goldenTrees(t) {
		for _, place := range []string{"uniform", "zipf"} {
			key := fmt.Sprintf("spanforest/%s/%s", nt.name, place)
			pl, seed := goldenSpanforestInput(t, nt.name, place, nt.tree.NumCompute())
			res := checkWitnessWire(t, key, nt.tree, pl, seed)
			planned, err := SpanningForest(nt.tree, pl, seed)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if planned.Strategy != "gather" && serializeReport(planned.Report) != serializeReport(res.Report) {
				t.Fatalf("%s: the planned run kept the contraction but differs from it", key)
			}
			g, ok := golden[key]
			rep := planned.Report
			if !ok || rep.NumRounds() != g.Rounds || rep.TotalElements() != g.Elements ||
				math.Abs(rep.TotalCost()-g.Cost) > 1e-9*g.Cost {
				t.Fatalf("%s: rebuilt input runs %d rounds, %d elements, cost %v; the golden row is %+v",
					key, rep.NumRounds(), rep.TotalElements(), rep.TotalCost(), g)
			}
		}
	}
	for i := 0; i < 2*topotest.NumShapes; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		name, tr, err := topotest.Draw(rng, i)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := dataset.GNP(rng, 60+rng.Intn(200), 0.03)
		if err != nil {
			t.Fatal(err)
		}
		checkWitnessWire(t, fmt.Sprintf("topotest %s #%d", name, i), tr, placeEdges(packed, tr.NumCompute()), uint64(i))
	}
	tree, pl := answerFixture(t)
	checkWitnessWire(t, "answer fixture", tree, pl, 7)
}

// fuzzProps decodes a byte string into a proposal list as the wire carries
// it: keys a<<32|b, labels strictly ascending from a start the first byte
// sets, and every b ≤ a. Each entry takes two bytes: the gap to the label
// before, and either a repeat of the b before (top bit set, where that is
// still ≤ a) or how far below its label b lies.
func fuzzProps(data []byte) []uint64 {
	if len(data) == 0 {
		return nil
	}
	var ps []uint64
	a := uint64(data[0]) << 23
	for k := 1; k+2 <= len(data) && len(ps) < 1024; k += 2 {
		if len(ps) > 0 {
			a += 1 + uint64(data[k])
		}
		b := a - min(a, uint64(data[k+1]&0x7f))
		if last := len(ps) - 1; last >= 0 && data[k+1]&0x80 != 0 {
			b = uint64(uint32(ps[last]))
		}
		ps = append(ps, a<<32|b)
	}
	return ps
}

// FuzzProposalWire holds the proposal wire to its contract: wireProps
// writes two byte-derived lists (fuzzProps) one after the other on one
// slab, readProps reads each back to the same entries at the same
// positions, and propLabels counts its entries. A payload takes one word per entry and one per change of b,
// the first entry's b counting as one, so at most two words per entry.
func FuzzProposalWire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255, 3, 0, 0, 0x80, 0, 5, 2, 0x80, 7, 0x83, 1, 1})
	f.Add([]byte{1, 0, 9, 0, 0x80, 0, 0x80, 0, 0x80, 4, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Room for both lists, so the slab never moves to a new array and
		// its length counts what the two payloads kept.
		sl := payloadSlab{buf: make([]uint64, 0, 2*len(data))}
		lists := [][]uint64{fuzzProps(data), fuzzProps(data[len(data)/2:])}
		var payloads [][]uint64
		for _, ps := range lists {
			payloads = append(payloads, wireProps(&sl, ps, bareKey))
		}
		total := 0
		for j, ps := range lists {
			words := payloads[j]
			total += len(words)
			want := len(ps)
			for k, p := range ps {
				if k == 0 || uint32(p) != uint32(ps[k-1]) {
					want++
				}
			}
			if len(words) != want || len(words) > 2*len(ps) {
				t.Fatalf("list %d: %d entries with %d changes of b take %d words", j, len(ps), want-len(ps), len(words))
			}
			as, bs := readProps(words, nil, nil)
			if len(as) != len(ps) || len(bs) != len(ps) {
				t.Fatalf("list %d: %d entries read back as %d labels, %d b's", j, len(ps), len(as), len(bs))
			}
			if n := propLabels(words); n != len(ps) {
				t.Fatalf("list %d: propLabels counts %d of %d entries", j, n, len(ps))
			}
			for k, p := range ps {
				if uint64(as[k]) != p>>32 || uint64(bs[k]) != p&0xFFFFFFFF {
					t.Fatalf("list %d: entry %d [%d, %d] reads back as [%d, %d]", j, k, p>>32, uint32(p), as[k], bs[k])
				}
			}
		}
		if len(sl.buf) != total {
			t.Fatalf("the slab holds %d words for payloads of %d", len(sl.buf), total)
		}
	})
}

// fuzzRoots decodes a byte string into the roots of an answer, one per
// byte: a byte with its top bit set repeats the root before it, any other
// names one of 32 roots by its low five bits, spread over 64 bits as the
// map oracle's ids are, so lists of few roots that interleave — the
// palette form's case — are as easy to reach as lists of many.
func fuzzRoots(data []byte) []uint64 {
	rs := make([]uint64, 0, len(data))
	for k, b := range data {
		if b&0x80 != 0 && k > 0 {
			rs = append(rs, rs[k-1])
			continue
		}
		rs = append(rs, uint64(b&0x1f)*0x9e3779b97f4a7c15)
	}
	return rs
}

// cycle is n bytes naming roots 0, 1, …, k−1, 0, 1, … in turn.
func cycle(n, k int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i % k)
	}
	return data
}

// FuzzRootWire holds the root answer to its contract: a byte-derived root
// list (fuzzRoots) is written twice on one slab that holds stale words, as
// a reused one does — once alone and once after a won bitmap, as
// sendRoots lays a witness answer out — and readRoots reads each back to
// the same roots, the won bitmap untouched. After its won bitmap an answer
// to n labels whose roots change c times (the first counting) among k
// distinct roots takes the least of n words, the ⌈n/64⌉ + c of the change
// form with its roots one word each, and, for 2 ≤ k ≤ 16, the
// ⌈n/64⌉ + k + ⌈c·b/64⌉ of its palette form (b = 1, 2 or 4 bits, the
// least that indexes k), so never more than n. Malformed answers read as
// such: a change bitmap with bit 0 cleared or a bit set past n, a root past
// its set bits, fewer words after the bitmap than its set bits that no
// palette's length accounts for, a palette index repeating the one before
// or stray bits after the last, n+1 words and none.
func FuzzRootWire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7})
	f.Add(bytes.Repeat([]byte{5}, 200))                             // all equal
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}) // all distinct
	f.Add(append([]byte{1}, bytes.Repeat([]byte{0x80}, 63)...))     // n = 64, one root
	f.Add(append(bytes.Repeat([]byte{0x80}, 64), 2))                // n = 65, a change in the second bitmap word
	f.Add([]byte{3, 0x80, 0x80, 4, 4, 0x80, 9, 0x80, 0x80, 0x80, 3})
	f.Add(cycle(200, 2))  // two roots interleaved: one-bit palette
	f.Add(cycle(301, 3))  // three: two-bit palette, stray bits after the last index
	f.Add(cycle(500, 16)) // sixteen: four-bit palette
	f.Add(cycle(500, 17)) // seventeen: one word per change
	f.Fuzz(func(t *testing.T, data []byte) {
		rs := fuzzRoots(data)
		n := len(rs)
		bmWords := (n + 63) >> 6
		c, distinct := 0, map[uint64]bool{}
		for k, r := range rs {
			if k == 0 || r != rs[k-1] {
				c++
			}
			distinct[r] = true
		}
		k := len(distinct)
		// indexBits is the palette index width for k roots, and palettes
		// the lengths a palette of 2 to 16 roots takes for c changes.
		indexBits := func(k int) int {
			switch {
			case k == 2:
				return 1
			case k <= 4:
				return 2
			}
			return 4
		}
		palettes := map[int]bool{}
		for k := 2; k <= 16; k++ {
			palettes[k+(c*indexBits(k)+63)/64] = true
		}
		want := min(n, bmWords+c)
		if k >= 2 && k <= 16 {
			want = min(want, bmWords+k+(c*indexBits(k)+63)/64)
		}
		sl := payloadSlab{buf: make([]uint64, 2*(bmWords+n))}
		for k := range sl.buf {
			sl.buf[k] = ^uint64(0)
		}
		sl.buf = sl.buf[:0]
		total := 0
		for _, won := range []int{0, bmWords} {
			rc := countRoots(rs)
			reply := sl.grab(won + rootWords(n, rc))
			total += len(reply)
			for k := range reply[:won] {
				reply[k] = uint64(k) * 0x5555
			}
			wireRoots(reply[won:], n, rc, func(k int) uint64 { return rs[k] })
			if got := len(reply) - won; got != want || got > n {
				t.Fatalf("%d roots with %d changes among %d take %d words after a %d-word won bitmap, want %d", n, c, k, got, won, want)
			}
			for k := range reply[:won] {
				if reply[k] != uint64(k)*0x5555 {
					t.Fatalf("won word %d reads %x after the roots were written", k, reply[k])
				}
			}
			ans := reply[won:]
			got, ok := readRoots(ans, n, nil)
			if !ok || !slices.Equal(got, rs) {
				t.Fatalf("%d roots in %d words read back as %v (ok %v), want %v", n, len(ans), got, ok, rs)
			}
			if len(ans) == n {
				continue
			}
			for r := range min(c, 64) {
				short := append(slices.Clone(ans[:bmWords]), make([]uint64, r)...)
				if _, ok := readRoots(short, n, nil); ok && !palettes[r] && len(short) < n {
					t.Fatalf("a change bitmap of %d bits and %d words after it, no palette's length, reads as an answer", c, r)
				}
			}
			bad := slices.Clone(ans)
			bad[0] &^= 1
			if _, ok := readRoots(bad, n, nil); ok {
				t.Fatalf("a change bitmap with bit 0 clear reads as an answer")
			}
			if n&63 != 0 {
				bad = slices.Clone(ans)
				bad[bmWords-1] |= 1 << (n & 63)
				if _, ok := readRoots(bad, n, nil); ok {
					t.Fatalf("a change bitmap with a bit past its %d labels reads as an answer", n)
				}
			}
			if len(ans) == bmWords+c {
				if _, ok := readRoots(append(slices.Clone(ans), 1), n, nil); ok && len(ans)+1 < n {
					t.Fatalf("a change form with a root past its set bits reads as an answer")
				}
				continue
			}
			idx, b := ans[bmWords+k:], indexBits(k)
			bad = slices.Clone(ans)
			first := idx[0] & (1<<b - 1)
			bad[bmWords+k] = idx[0]&^(1<<(2*b)-1) | first<<b | first
			if _, ok := readRoots(bad, n, nil); ok {
				t.Fatalf("a palette index repeating the one before reads as an answer")
			}
			if end := c * b; end&63 != 0 {
				bad = slices.Clone(ans)
				bad[len(bad)-1] |= 1 << 63
				if _, ok := readRoots(bad, n, nil); ok {
					t.Fatalf("stray bits after the last of %d palette indices read as an answer", c)
				}
			}
		}
		if _, ok := readRoots(make([]uint64, n+1), n, nil); ok {
			t.Fatalf("%d words read as the answer to %d labels", n+1, n)
		}
		if _, ok := readRoots(nil, n, nil); ok && n > 0 {
			t.Fatalf("no words read as the answer to %d labels", n)
		}
		if len(sl.buf) != total {
			t.Fatalf("the slab holds %d words for answers of %d", len(sl.buf), total)
		}
	})
}
