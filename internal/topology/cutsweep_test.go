package topology

import (
	"math/rand"
	"testing"
)

// sweepAdd is one CutSweep.Add call; sweepGroup is the calls of one group.
type sweepAdd struct {
	v    NodeID
	slot int
	n    int64
}
type sweepGroup []sweepAdd

// bruteCuts is the per-edge oracle: for every edge it re-counts every
// group's tuples on each side with OnChildSide and multiplies.
func bruteCuts(t *Tree, k int, groups []sweepGroup) []Cut {
	cuts := make([]Cut, t.NumEdges())
	for e := range cuts {
		for _, g := range groups {
			in, out := make([]int64, k), make([]int64, k)
			for _, a := range g {
				if t.OnChildSide(EdgeID(e), a.v) {
					in[a.slot] += a.n
				} else {
					out[a.slot] += a.n
				}
			}
			below, above := int64(1), int64(1)
			for j := 0; j < k; j++ {
				below *= in[j]
				above *= out[j]
			}
			cuts[e].Below += below
			cuts[e].Above += above
		}
	}
	return cuts
}

func sweepCuts(s *CutSweep, groups []sweepGroup) []Cut {
	for _, g := range groups {
		for _, a := range g {
			s.Add(a.v, a.slot, a.n)
		}
		s.EndGroup()
	}
	return s.Cuts()
}

func checkCuts(tb testing.TB, label string, got, want []Cut) {
	tb.Helper()
	for e := range want {
		if got[e] != want[e] {
			tb.Fatalf("%s: edge %d: sweep %+v, per-edge oracle %+v", label, e, got[e], want[e])
		}
	}
}

// TestCutSweepMatchesBruteForce drives random groups (holders anywhere in
// the tree, so holders are routinely ancestors of other holders; repeated
// Adds; zero counts; relations missing from a group) through one sweep per
// tree and reuses the sweep to pin that Cuts resets it.
func TestCutSweepMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		tr := randomTestTree(t, rng, n)
		k := 1 + rng.Intn(4)
		s := NewCutSweep(tr, k)
		for round := 0; round < 2; round++ {
			groups := make([]sweepGroup, rng.Intn(12))
			for g := range groups {
				for a := rng.Intn(3 * k * 2); a > 0; a-- {
					groups[g] = append(groups[g], sweepAdd{
						v:    NodeID(rng.Intn(n)),
						slot: rng.Intn(k),
						n:    int64(rng.Intn(4)),
					})
				}
			}
			checkCuts(t, "random", sweepCuts(s, groups), bruteCuts(tr, k, groups))
		}
	}
}

// TestCutSweepShapes pins the hand-checkable cases: a line with holders at
// both ends and in the middle, a star, everything on one node, and a group
// big enough to leave sortByTin's insertion-sort range.
func TestCutSweepShapes(t *testing.T) {
	line := NewBuilder()
	prev := line.Compute("")
	for i := 1; i < 6; i++ {
		v := line.Compute("")
		line.Link(v, prev, 1)
		prev = v
	}
	lineTree := line.MustBuild()
	star, err := UniformStar(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	spine := make([]float64, 70)
	for i := range spine {
		spine[i] = 1
	}
	wide, err := Caterpillar(spine, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wideGroup sweepGroup
	for i, v := range wide.ComputeNodes() {
		wideGroup = append(wideGroup, sweepAdd{v, i % 2, int64(1 + i%3)})
	}
	for _, tc := range []struct {
		name   string
		tree   *Tree
		k      int
		groups []sweepGroup
	}{
		{"line-ends-and-middle", lineTree, 2, []sweepGroup{{{0, 0, 2}, {5, 1, 3}, {3, 0, 1}, {3, 1, 1}}}},
		{"line-one-node", lineTree, 3, []sweepGroup{{{2, 0, 2}, {2, 1, 2}, {2, 2, 5}}}},
		{"star", star, 2, []sweepGroup{{{1, 0, 1}, {2, 1, 1}}, {{3, 0, 4}, {3, 1, 1}, {4, 1, 2}}}},
		{"missing-relation", star, 3, []sweepGroup{{{1, 0, 1}, {2, 1, 1}}, {{1, 0, 1}, {2, 1, 1}, {3, 2, 1}}}},
		{"wide-group", wide, 2, []sweepGroup{wideGroup}},
		{"no-groups", star, 2, nil},
	} {
		got := sweepCuts(NewCutSweep(tc.tree, tc.k), tc.groups)
		checkCuts(t, tc.name, got, bruteCuts(tc.tree, tc.k, tc.groups))
	}
	// One compute node: no edge, no cut.
	single := NewBuilder()
	single.Compute("")
	if got := sweepCuts(NewCutSweep(single.MustBuild(), 2), []sweepGroup{{{0, 0, 1}, {0, 1, 1}}}); len(got) != 0 {
		t.Fatalf("single-node tree has %d cuts", len(got))
	}
}

// TestCutSweepWraps: products beyond int64 wrap identically in the sweep
// and in per-edge counting.
func TestCutSweepWraps(t *testing.T) {
	tr := randomTestTree(t, rand.New(rand.NewSource(5)), 12)
	const big = int64(1) << 40
	groups := []sweepGroup{{{1, 0, big + 3}, {7, 1, big + 5}, {9, 0, 7}, {11, 1, big - 1}}}
	checkCuts(t, "wrap", sweepCuts(NewCutSweep(tr, 2), groups), bruteCuts(tr, 2, groups))
}

// fuzzSweep decodes raw fuzz bytes into a small tree plus groups. Byte 0
// picks the node count, byte 1 the slot count, then one byte per non-root
// node picks its parent among the earlier nodes, and every following byte
// triple (node, slot, count) is one Add; a count byte of 255 closes the
// group instead. Decoding never fails.
func fuzzSweep(data []byte) (*Tree, int, []sweepGroup) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		c := data[0]
		data = data[1:]
		return c, true
	}
	nb, _ := next()
	kb, _ := next()
	n, k := 1+int(nb)%16, 1+int(kb)%4
	b := NewBuilder()
	b.Compute("")
	for i := 1; i < n; i++ {
		pb, _ := next()
		var v NodeID
		if pb&0x80 != 0 {
			v = b.Router("")
		} else {
			v = b.Compute("")
		}
		b.Link(v, NodeID(int(pb&0x7f)%i), 1)
	}
	groups := []sweepGroup{nil}
	for {
		vb, ok1 := next()
		sb, ok2 := next()
		cb, ok3 := next()
		if !ok1 || !ok2 || !ok3 {
			break
		}
		if cb == 255 {
			groups = append(groups, nil)
			continue
		}
		g := &groups[len(groups)-1]
		*g = append(*g, sweepAdd{NodeID(int(vb) % n), int(sb) % k, int64(cb) % 8})
	}
	return b.MustBuild(), k, groups
}

// FuzzCutSweep checks the sweep against per-edge OnChildSide counting on
// byte-derived trees and groups.
func FuzzCutSweep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{5, 1, 0, 0, 1, 1, 3, 0, 0, 2, 5, 1, 1, 2, 0, 3})
	f.Add([]byte{9, 2, 0, 0x81, 1, 0x82, 2, 3, 3, 0, 1, 4, 5, 2, 1, 2, 9, 0, 1, 0, 0, 255, 3, 0, 2, 3, 1, 2, 3, 2, 2})
	f.Add([]byte{15, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, k, groups := fuzzSweep(data)
		checkCuts(t, "fuzz", sweepCuts(NewCutSweep(tree, k), groups), bruteCuts(tree, k, groups))
	})
}
