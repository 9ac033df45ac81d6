package cartesian

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// TestCoversGridAgainstBruteForce cross-checks the sweep-line coverage test
// against direct cell enumeration on small grids.
func TestCoversGridAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sizeR := int64(1 + rng.Intn(12))
		sizeS := int64(1 + rng.Intn(12))
		k := rng.Intn(6)
		rects := make([]Rect, k)
		for i := range rects {
			x0 := int64(rng.Intn(14)) - 1
			y0 := int64(rng.Intn(14)) - 1
			rects[i] = Rect{
				X0: x0, X1: x0 + int64(rng.Intn(8)),
				Y0: y0, Y1: y0 + int64(rng.Intn(8)),
			}
		}
		want := true
		for x := int64(0); x < sizeR && want; x++ {
			for y := int64(0); y < sizeS; y++ {
				hit := false
				for _, r := range rects {
					if !r.Empty() && r.X0 <= x && x < r.X1 && r.Y0 <= y && y < r.Y1 {
						hit = true
						break
					}
				}
				if !hit {
					want = false
					break
				}
			}
		}
		return CoversGrid(rects, sizeR, sizeS) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSegments(t *testing.T) {
	tr, _ := topology.UniformStar(3, 1)
	nodes := tr.ComputeNodes()
	rects := []Rect{
		{X0: 0, X1: 4, Y0: 0, Y1: 10},
		{X0: 4, X1: 10, Y0: 0, Y1: 10},
		{X0: 2, X1: 6, Y0: 0, Y1: 10}, // overlaps both
	}
	segs := segments(rects, 10, func(r Rect) (int64, int64) { return r.X0, r.X1 }, nodes)
	// Breakpoints: 0, 2, 4, 6, 10 → 4 segments.
	if len(segs) != 4 {
		t.Fatalf("%d segments, want 4", len(segs))
	}
	wantDsts := [][]topology.NodeID{
		{nodes[0]},
		{nodes[0], nodes[2]},
		{nodes[1], nodes[2]},
		{nodes[1]},
	}
	for i, sg := range segs {
		if len(sg.dsts) != len(wantDsts[i]) {
			t.Fatalf("segment %d has %d destinations, want %d", i, len(sg.dsts), len(wantDsts[i]))
		}
		for j := range sg.dsts {
			if sg.dsts[j] != wantDsts[i][j] {
				t.Fatalf("segment %d dsts = %v, want %v", i, sg.dsts, wantDsts[i])
			}
		}
	}
	// Segments partition [0, 10).
	if segs[0].lo != 0 || segs[len(segs)-1].hi != 10 {
		t.Error("segments do not span the axis")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].lo != segs[i-1].hi {
			t.Error("segments are not contiguous")
		}
	}
}

func TestSegmentsEmptyAxis(t *testing.T) {
	tr, _ := topology.UniformStar(2, 1)
	if segs := segments(nil, 0, func(r Rect) (int64, int64) { return r.X0, r.X1 }, tr.ComputeNodes()); segs != nil {
		t.Error("zero-size axis should have no segments")
	}
}

// TestShrinkToFitReducesConcentration reproduces the motivating case: nine
// equal nodes whose rounded squares each swallow the grid; the shrink pass
// must spread the grid over at least four nodes.
func TestShrinkToFitReducesConcentration(t *testing.T) {
	tr, err := topology.FatTree(2, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.NumCompute()
	rng := rand.New(rand.NewSource(1))
	r := dataset.Distinct(rng, 4096)
	s := dataset.Distinct(rng, 4096)
	pr, _ := dataset.SplitUniform(r, p)
	ps, _ := dataset.SplitUniform(s, p)
	res, err := Tree(tr, pr, ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pr, ps, res); err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, rect := range res.Rects {
		if !rect.Empty() {
			active++
		}
	}
	if active < 4 {
		t.Errorf("only %d nodes participate; shrink-to-fit should spread the grid", active)
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	rects := []Rect{{X0: 1, X1: 3, Y0: 5, Y1: 9}, {}}
	back := transpose(transpose(rects))
	for i := range rects {
		if back[i] != rects[i] {
			t.Fatalf("transpose not an involution: %+v -> %+v", rects[i], back[i])
		}
	}
	tp := transpose(rects)
	if tp[0].X0 != 5 || tp[0].Y1 != 3 {
		t.Errorf("transpose wrong: %+v", tp[0])
	}
}

// TestDistributeRejectsNonCovering ensures the safety net fires when a
// strategy produces holes.
func TestDistributeRejectsNonCovering(t *testing.T) {
	tr, _ := topology.UniformStar(2, 1)
	r, _ := dataset.SplitUniform(dataset.Sequential(10), 2)
	s, _ := dataset.SplitUniform(dataset.Sequential(10), 2)
	in, err := newInstance(tr, r, s)
	if err != nil {
		t.Fatal(err)
	}
	rects := []Rect{{X0: 0, X1: 5, Y0: 0, Y1: 10}, {}} // right half uncovered
	if _, err := distribute(in, layout{rects, "broken"}); err == nil {
		t.Error("expected coverage error")
	}
	if _, err := distribute(in, layout{rects[:1], "short"}); err == nil {
		t.Error("expected an error for one rectangle on two nodes")
	}
}

// TestEntryPointsRejectMismatchedPlacements: every entry point refuses
// placements that do not cover the tree's compute nodes, R's or S's.
func TestEntryPointsRejectMismatchedPlacements(t *testing.T) {
	tr, _ := topology.UniformStar(3, 1)
	good, _ := dataset.SplitUniform(dataset.Sequential(12), 3)
	short := good[:2]
	for name, run := range map[string]func(*topology.Tree, dataset.Placement, dataset.Placement, ...netsim.Option) (*Result, error){
		"Tree": Tree, "UniformGrid": UniformGrid, "Unequal": Unequal,
	} {
		for _, pair := range [][2]dataset.Placement{{short, good}, {good, short}} {
			if _, err := run(tr, pair[0], pair[1]); err == nil {
				t.Errorf("%s accepted placements over %d and %d of 3 nodes", name, len(pair[0]), len(pair[1]))
			}
		}
	}
}

// TestUnequalRectsCoverage property-tests the column/strip construction.
func TestUnequalRectsCoverage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = rng.Float64()*7 + 0.1
		}
		small := int64(1 + rng.Intn(400))
		large := small + int64(rng.Intn(4000))
		rects, err := unequalRects(weights, small, large)
		if err != nil {
			return false
		}
		clamped := make([]Rect, len(rects))
		for i := range rects {
			clamped[i] = rects[i].Clamp(small, large)
		}
		return CoversGrid(clamped, small, large)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestVerifyComparesKeyMultisets pins what Verify accepts per node: the
// rows and columns of the node's rectangle as multisets — delivery order is
// free, content is not.
func TestVerifyComparesKeyMultisets(t *testing.T) {
	tr, err := topology.FatTree(2, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.NumCompute()
	rng := rand.New(rand.NewSource(14))
	pr, _ := dataset.SplitUniform(dataset.Distinct(rng, 4096), p)
	ps, _ := dataset.SplitUniform(dataset.Distinct(rng, 4096), p)
	res, err := Tree(tr, pr, ps)
	if err != nil {
		t.Fatal(err)
	}
	node := -1
	for i, rect := range res.Rects {
		if rect.X1-rect.X0 >= 64 { // enough rows for the radix path
			node = i
		}
	}
	if node < 0 {
		t.Fatal("no node with a wide rectangle")
	}
	rows := res.RKeys[node]
	sent := slices.Clone(rows)
	restore := func() { res.RKeys[node] = rows; copy(rows, sent) }

	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if err := Verify(pr, ps, res); err != nil {
		t.Errorf("reordered deliveries rejected: %v", err)
	}
	restore()
	rows[0] = rows[1] // one row twice, another missing
	if err := Verify(pr, ps, res); err == nil {
		t.Error("expected error for a duplicated row standing in for a lost one")
	}
	restore()
	res.RKeys[node] = rows[:len(rows)-1]
	if err := Verify(pr, ps, res); err == nil {
		t.Error("expected error for a lost row")
	}
	restore()
	if err := Verify(pr, ps, res); err != nil {
		t.Fatalf("restored result rejected: %v", err)
	}
}
