package place

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"topompc/internal/topology"
)

func testTrees(t *testing.T) map[string]*topology.Tree {
	t.Helper()
	star, err := topology.UniformStar(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	twotier, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	cater, err := topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Tree{"star": star, "twotier-skew": twotier, "caterpillar": cater}
}

// randomTrees yields the seeded random-tree corpus shared by the property
// tests below.
func randomTrees(t *testing.T) []*topology.Tree {
	t.Helper()
	var trees []*topology.Tree
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial*13)))
		p := 1 + rng.Intn(12) // 1..12 compute nodes
		r := 1 + rng.Intn(6)  // 1..6 routers
		minBW := 0.5 + rng.Float64()*2
		maxBW := minBW + rng.Float64()*20
		tree, err := topology.Random(rng, p, r, minBW, maxBW)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	return trees
}

// TestCapacitiesPositiveFinite: on every random tree, capacity weights are
// strictly positive and finite for every compute node — the invariant that
// keeps weighted choosers, apportioners, and splitter selection
// well-defined downstream.
func TestCapacitiesPositiveFinite(t *testing.T) {
	for ti, tree := range randomTrees(t) {
		w := Capacities(tree)
		if len(w) != tree.NumCompute() {
			t.Fatalf("tree %d: %d weights for %d compute nodes", ti, len(w), tree.NumCompute())
		}
		for i, x := range w {
			if !(x > 0) || math.IsInf(x, 0) || math.IsNaN(x) {
				t.Errorf("tree %d: weight %d = %v, want strictly positive and finite (all: %v)", ti, i, x, w)
			}
		}
	}
}

// TestCapacities: capacity weights reflect uplink bottlenecks and stay
// uniform on symmetric topologies.
func TestCapacities(t *testing.T) {
	trees := testTrees(t)
	w := Capacities(trees["star"])
	for i := 1; i < len(w); i++ {
		if w[i] != w[0] {
			t.Fatalf("uniform star has non-uniform capacities %v", w)
		}
	}
	w = Capacities(trees["twotier-skew"])
	// Rack 1 (nodes 0-3) sits behind a 16× uplink; rack 2 behind 1.
	if w[0] <= w[4] {
		t.Fatalf("fast-rack node weight %v not above slow-rack %v (all: %v)", w[0], w[4], w)
	}
	// Infinite links must not produce NaN/zero weights.
	b := topology.NewBuilder()
	root := b.Router("w")
	v1 := b.Compute("v1")
	v2 := b.Compute("v2")
	b.Link(v1, root, 1)
	b.Link(v2, root, math.Inf(1))
	inf := b.MustBuild()
	w = Capacities(inf)
	for i, x := range w {
		if !(x > 0) {
			t.Fatalf("weight %d = %v on tree with infinite link", i, x)
		}
	}
}

// TestDeepestLevelPartition: on every random tree (with both capacity and
// uniform weights), the hierarchy truncated to its deepest level is a
// depth-1 hierarchy over that level, whose blocks partition the compute
// index set exactly: every index in exactly one block, BlockOf consistent
// with Blocks, and every combiner a member of its own block. Its up-sweep
// is at most one step, which forwards to block combiners only.
func TestDeepestLevelPartition(t *testing.T) {
	for ti, tree := range randomTrees(t) {
		for _, w := range [][]float64{Capacities(tree), Uniform(tree.NumCompute())} {
			h := NewHierarchy(tree, w)
			deep := h.Deepest()
			if h == nil {
				if deep != nil {
					t.Fatalf("tree %d: nil hierarchy truncates to %v", ti, deep)
				}
				continue
			}
			if deep.Depth() != 1 || deep.Parents[0] != nil || deep.Thresholds[0] != h.Thresholds[h.Depth()-1] {
				t.Fatalf("tree %d: truncation %+v of a depth-%d hierarchy", ti, deep, h.Depth())
			}
			plan := deep.Levels[0]
			if plan != h.Levels[h.Depth()-1] {
				t.Fatalf("tree %d: truncation is not the deepest level", ti)
			}
			if steps := deep.UpSweep(w); len(steps) > 1 {
				t.Fatalf("tree %d: %d up-sweep steps over one level", ti, len(steps))
			} else if len(steps) == 1 {
				for i, to := range steps[0].Target {
					if steps[0].Level != 0 || to != i && to != plan.Combiner[plan.BlockOf[i]] {
						t.Fatalf("tree %d: step %+v forwards %d to %d", ti, steps[0], i, to)
					}
				}
			}
			if len(plan.BlockOf) != tree.NumCompute() {
				t.Fatalf("tree %d: BlockOf covers %d of %d compute nodes", ti, len(plan.BlockOf), tree.NumCompute())
			}
			seen := make(map[int]int)
			for b, members := range plan.Blocks {
				if len(members) == 0 {
					t.Errorf("tree %d: block %d is empty", ti, b)
				}
				for _, i := range members {
					if prev, dup := seen[i]; dup {
						t.Errorf("tree %d: compute %d in blocks %d and %d", ti, i, prev, b)
					}
					seen[i] = b
					if plan.BlockOf[i] != b {
						t.Errorf("tree %d: BlockOf[%d] = %d, member of block %d", ti, i, plan.BlockOf[i], b)
					}
				}
				inBlock := false
				for _, i := range members {
					if i == plan.Combiner[b] {
						inBlock = true
					}
				}
				if !inBlock {
					t.Errorf("tree %d: combiner %d not a member of block %d", ti, plan.Combiner[b], b)
				}
			}
			if len(seen) != tree.NumCompute() {
				t.Errorf("tree %d: blocks cover %d of %d compute indices", ti, len(seen), tree.NumCompute())
			}
		}
	}
}

// TestDeepestLevelShapes checks the deepest level's combining plan on the
// canonical fixtures.
func TestDeepestLevelShapes(t *testing.T) {
	trees := testTrees(t)
	// Uniform star: no weak edge, no plan.
	if h := NewHierarchy(trees["star"], Uniform(trees["star"].NumCompute())).Deepest(); h != nil {
		t.Errorf("star: unexpected combining plan %+v", h.Levels[0])
	}
	// Skewed two-tier: the weak uplink splits the racks into two blocks.
	skew := trees["twotier-skew"]
	h := NewHierarchy(skew, Uniform(skew.NumCompute())).Deepest()
	if h == nil {
		t.Fatal("twotier-skew: expected a combining plan")
	}
	plan := h.Levels[0]
	if len(plan.Blocks) != 2 {
		t.Fatalf("twotier-skew: %d blocks, want 2 (%v)", len(plan.Blocks), plan.Blocks)
	}
	for i, b := range plan.BlockOf {
		want := 0
		if i >= 4 {
			want = 1
		}
		if b != want {
			t.Errorf("compute %d in block %d, want %d", i, b, want)
		}
	}
	// Under capacity weights only the slow rack, a minority, merges: its
	// members forward to its combiner, the fast rack's keep their payloads.
	w := Capacities(skew)
	steps := NewHierarchy(skew, w).Deepest().UpSweep(w)
	if len(steps) != 1 {
		t.Fatalf("twotier-skew: %d up-sweep steps, want 1", len(steps))
	}
	for i, to := range steps[0].Target {
		want := i
		if i >= 4 {
			want = 4
		}
		if to != want {
			t.Errorf("compute %d forwards to %d, want %d", i, to, want)
		}
	}
}

// TestProportionalLemma9: counts sum exactly to n with every prefix within
// 1 of its exact proportional share, over random float weights.
func TestProportionalLemma9(t *testing.T) {
	f := func(rawW []uint16, rawN uint16) bool {
		if len(rawW) == 0 {
			return true
		}
		w := make([]float64, len(rawW))
		var total float64
		for i, h := range rawW {
			w[i] = float64(h) / 3
			total += w[i]
		}
		n := int64(rawN)
		counts := Proportional(w, n)
		var sum int64
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		if total == 0 {
			return sum == 0
		}
		// Lemma 9(3) with equality: the counts consume exactly n.
		if sum != n {
			return false
		}
		// Lemma 9(1): every prefix within 1 of the exact share.
		var prefix int64
		var wPrefix float64
		for i := range counts {
			prefix += counts[i]
			wPrefix += w[i]
			exact := wPrefix / total * float64(n)
			if float64(prefix) < exact-1-1e-6 || float64(prefix) > exact+1+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestProportionalZeroCases(t *testing.T) {
	if got := Proportional(nil, 5); len(got) != 0 {
		t.Error("no buckets should give empty counts")
	}
	got := Proportional([]float64{0, 0}, 5)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("zero-weight buckets got %v", got)
	}
	got = ProportionalInt([]int64{3, 7}, 0)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("zero units spread as %v", got)
	}
	// Negative weights are treated as zero, not as sinks.
	got = Proportional([]float64{-2, 1}, 4)
	if got[0] != 0 || got[1] != 4 {
		t.Errorf("negative weight got %v, want [0 4]", got)
	}
}

// TestAssignCellsInvariants: every cell owned, PerNode consistent with
// Owner, contiguous runs follow the requested order.
func TestAssignCellsInvariants(t *testing.T) {
	trees := testTrees(t)
	tree := trees["twotier-skew"]
	w := Capacities(tree)
	order := PreorderComputeIndices(tree)
	for _, numCells := range []int{0, 1, 7, 8, 64} {
		l, err := AssignCells(numCells, w, order)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Owner) != numCells {
			t.Fatalf("%d cells: Owner covers %d", numCells, len(l.Owner))
		}
		perNode := make([]int, tree.NumCompute())
		for _, o := range l.Owner {
			perNode[o]++
		}
		for i := range perNode {
			if perNode[i] != l.PerNode[i] {
				t.Errorf("%d cells: PerNode[%d] = %d, Owner says %d", numCells, i, l.PerNode[i], perNode[i])
			}
		}
		// Contiguity: each owner's cells form one run, in `order` sequence.
		pos := make(map[int32]int)
		for k, ci := range order {
			pos[int32(ci)] = k
		}
		for c := 1; c < numCells; c++ {
			if pos[l.Owner[c]] < pos[l.Owner[c-1]] {
				t.Fatalf("%d cells: owner order regresses at cell %d (%d after %d)",
					numCells, c, l.Owner[c], l.Owner[c-1])
			}
		}
	}
	if _, err := AssignCells(4, []float64{1, math.NaN()}, []int{0, 1}); err == nil {
		t.Error("NaN weight accepted")
	}
	if _, err := AssignCells(4, []float64{1, 2}, []int{0}); err == nil {
		t.Error("short order accepted")
	}
}

// TestSplitters: weighted splitters allocate sample ranks proportionally;
// uniform weights reproduce equal quantiles; degenerate cases behave.
func TestSplitters(t *testing.T) {
	sorted := make([]uint64, 1000)
	for i := range sorted {
		sorted[i] = uint64(i)
	}
	// 3:1 weights on two nodes: the single splitter sits near rank 750.
	sp := Splitters(sorted, []float64{3, 1})
	if len(sp) != 1 || sp[0] != 750 {
		t.Errorf("3:1 splitters = %v, want [750]", sp)
	}
	// Uniform weights: equal quantiles.
	sp = Splitters(sorted, []float64{1, 1, 1, 1})
	want := []uint64{250, 500, 750}
	for i := range want {
		if sp[i] != want[i] {
			t.Errorf("uniform splitter %d = %d, want %d", i, sp[i], want[i])
		}
	}
	// Zero-weight node: empty interval via duplicate splitter.
	sp = Splitters(sorted, []float64{1, 0, 1})
	if len(sp) != 2 || sp[0] != sp[1] {
		t.Errorf("zero-weight splitters = %v, want a duplicate pair", sp)
	}
	// Empty sample: everything to the first node.
	sp = Splitters(nil, []float64{1, 2, 3})
	if len(sp) != 2 || sp[0] != math.MaxUint64 || sp[1] != math.MaxUint64 {
		t.Errorf("empty-sample splitters = %v", sp)
	}
	if got := Splitters(sorted, []float64{5}); got != nil {
		t.Errorf("single-node splitters = %v, want nil", got)
	}
}

// TestFallbackUniform and IdentityOrder/PreorderComputeIndices basics.
func TestHelpers(t *testing.T) {
	w := []float64{0, 0}
	u := FallbackUniform(w)
	if u[0] != 1 || u[1] != 1 {
		t.Errorf("FallbackUniform(all-zero) = %v", u)
	}
	if w2 := FallbackUniform([]float64{0, 3}); w2[0] != 0 || w2[1] != 3 {
		t.Errorf("FallbackUniform kept %v", w2)
	}
	if o := IdentityOrder(3); o[0] != 0 || o[1] != 1 || o[2] != 2 {
		t.Errorf("IdentityOrder = %v", o)
	}
	tree := testTrees(t)["twotier-skew"]
	order := PreorderComputeIndices(tree)
	if len(order) != tree.NumCompute() {
		t.Fatalf("preorder covers %d of %d compute nodes", len(order), tree.NumCompute())
	}
	seen := make(map[int]bool)
	for _, ci := range order {
		if seen[ci] {
			t.Fatalf("compute index %d repeated in %v", ci, order)
		}
		seen[ci] = true
	}
}
