package place

import (
	"math"
	"testing"

	"topompc/internal/topology"
)

// deepTrees returns the canonical deep-gradient fixtures: a tapered
// fat-tree (leaf 16, rack 6.4/4, pod 2.56/1 links) and a graded
// caterpillar (legs 8, spine 8-3-0.5-3-8).
func deepTrees(t *testing.T) map[string]*topology.Tree {
	t.Helper()
	taper, err := topology.FatTree(3, 2, 16, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	grade, err := topology.Caterpillar([]float64{8, 3, 0.5, 3, 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Tree{"fattree-taper": taper, "caterpillar-grade": grade}
}

// TestHierarchyRefines: on every random tree (and both weight vectors),
// the hierarchy's levels strictly refine — every level covers the compute
// set exactly, every level-k+1 block is contained in one level-k block,
// every level has strictly more blocks than the previous, and the
// thresholds strictly increase.
func TestHierarchyRefines(t *testing.T) {
	for ti, tree := range randomTrees(t) {
		for _, w := range [][]float64{Capacities(tree), Uniform(tree.NumCompute())} {
			h := NewHierarchy(tree, w)
			if h == nil {
				continue
			}
			if len(h.Levels) != len(h.Thresholds) || len(h.Levels) != len(h.Parents) {
				t.Fatalf("tree %d: ragged hierarchy: %d levels, %d thresholds, %d parent maps",
					ti, len(h.Levels), len(h.Thresholds), len(h.Parents))
			}
			for k, plan := range h.Levels {
				// Each level partitions the compute indices.
				seen := make(map[int]bool)
				for b, members := range plan.Blocks {
					if len(members) == 0 {
						t.Errorf("tree %d level %d: block %d empty", ti, k, b)
					}
					for _, i := range members {
						if seen[i] {
							t.Errorf("tree %d level %d: compute %d in two blocks", ti, k, i)
						}
						seen[i] = true
						if plan.BlockOf[i] != b {
							t.Errorf("tree %d level %d: BlockOf[%d]=%d, member of %d", ti, k, i, plan.BlockOf[i], b)
						}
					}
					combinerIn := false
					for _, i := range members {
						combinerIn = combinerIn || i == plan.Combiner[b]
					}
					if !combinerIn {
						t.Errorf("tree %d level %d: combiner %d outside block %d", ti, k, plan.Combiner[b], b)
					}
				}
				if len(seen) != tree.NumCompute() {
					t.Errorf("tree %d level %d: covers %d of %d compute indices", ti, k, len(seen), tree.NumCompute())
				}
				if k == 0 {
					continue
				}
				// Strict refinement: more blocks, larger threshold, and every
				// block inside its recorded parent.
				prev := h.Levels[k-1]
				if len(plan.Blocks) <= len(prev.Blocks) {
					t.Errorf("tree %d level %d: %d blocks does not refine %d", ti, k, len(plan.Blocks), len(prev.Blocks))
				}
				if h.Thresholds[k] <= h.Thresholds[k-1] {
					t.Errorf("tree %d level %d: threshold %v not above %v", ti, k, h.Thresholds[k], h.Thresholds[k-1])
				}
				for b, members := range plan.Blocks {
					parent := h.Parents[k][b]
					for _, i := range members {
						if prev.BlockOf[i] != parent {
							t.Errorf("tree %d level %d: block %d member %d outside parent block %d",
								ti, k, b, i, parent)
						}
					}
				}
			}
		}
	}
}

// halfStrongestCut is the flat combining plan, computed directly: the
// blocks left after removing every edge below half the strongest finite
// link, or nil when that leaves one block or only singletons.
func halfStrongestCut(tree *topology.Tree, w []float64) *BlockPlan {
	maxW := 0.0
	for e := 0; e < tree.NumEdges(); e++ {
		if bw := tree.Bandwidth(topology.EdgeID(e)); !math.IsInf(bw, 1) && bw > maxW {
			maxW = bw
		}
	}
	if maxW == 0 {
		return nil
	}
	plan := thresholdBlocks(tree, w, maxW/2)
	for _, members := range plan.Blocks {
		if len(members) > 1 && len(plan.Blocks) > 1 {
			return plan
		}
	}
	return nil
}

// TestHierarchyDeepestIsHalfStrongestCut: the deepest level — cut at half
// the strongest link — is the flat plan exactly: same blocks in the same
// order, same combiners; and the hierarchy is nil exactly when no level
// has anything to merge (which implies the flat plan is nil too). The
// truncated hierarchy's combining test is the plain minority test.
func TestHierarchyDeepestIsHalfStrongestCut(t *testing.T) {
	for ti, tree := range randomTrees(t) {
		w := Capacities(tree)
		h := NewHierarchy(tree, w)
		flat := halfStrongestCut(tree, w)
		if h == nil {
			if flat != nil {
				t.Fatalf("tree %d: nil hierarchy but the flat cut found plan %v", ti, flat.Blocks)
			}
			continue
		}
		deep := h.Levels[h.Depth()-1]
		if flat == nil {
			// The flat plan is nil for a single block (impossible here: a
			// level always has ≥ 2 blocks) or all-singleton blocks; a
			// non-nil hierarchy may still keep that finest partition while
			// a coarser level carries the mergeable blocks.
			for b, members := range deep.Blocks {
				if len(members) > 1 {
					t.Fatalf("tree %d: flat cut nil but deepest level has multi-member block %d %v",
						ti, b, members)
				}
			}
			continue
		}
		if len(deep.Blocks) != len(flat.Blocks) {
			t.Fatalf("tree %d: deepest level has %d blocks, the flat cut %d", ti, len(deep.Blocks), len(flat.Blocks))
		}
		for b := range flat.Blocks {
			if len(deep.Blocks[b]) != len(flat.Blocks[b]) {
				t.Fatalf("tree %d block %d: sizes %d vs %d", ti, b, len(deep.Blocks[b]), len(flat.Blocks[b]))
			}
			for j := range flat.Blocks[b] {
				if deep.Blocks[b][j] != flat.Blocks[b][j] {
					t.Fatalf("tree %d block %d: member %d differs", ti, b, j)
				}
			}
			if deep.Combiner[b] != flat.Combiner[b] {
				t.Fatalf("tree %d block %d: combiner %d vs %d", ti, b, deep.Combiner[b], flat.Combiner[b])
			}
		}
		for i := range flat.BlockOf {
			if deep.BlockOf[i] != flat.BlockOf[i] {
				t.Fatalf("tree %d: BlockOf[%d] %d vs %d", ti, i, deep.BlockOf[i], flat.BlockOf[i])
			}
		}
		// The truncation pays exactly on the multi-member minority blocks,
		// and so does the hierarchy itself when it is flat (depth 1).
		var total float64
		for _, x := range w {
			total += x
		}
		pays := h.Deepest().CombinePays(w)[0]
		for b, members := range flat.Blocks {
			var blockW float64
			for _, i := range members {
				blockW += w[i]
			}
			minority := len(members) > 1 && 2*blockW <= total*(1+1e-9)
			if pays[b] != minority {
				t.Errorf("tree %d block %d: truncation pays %v, minority %v", ti, b, pays[b], minority)
			}
			if h.Depth() == 1 && h.CombinePays(w)[0][b] != minority {
				t.Errorf("tree %d block %d: depth-1 pays %v, minority %v", ti, b, !minority, minority)
			}
		}
	}
}

// TestHierarchyShapes pins the canonical deep fixtures: single-band
// topologies collapse to depth ≤ 1, the tapered fat-tree splits into pods
// then racks, and the graded caterpillar into halves then pairs.
func TestHierarchyShapes(t *testing.T) {
	trees := testTrees(t)
	if h := NewHierarchy(trees["star"], Uniform(trees["star"].NumCompute())); h != nil {
		t.Errorf("uniform star: unexpected hierarchy of depth %d", h.Depth())
	}
	h := NewHierarchy(trees["twotier-skew"], Capacities(trees["twotier-skew"]))
	if h == nil || h.Depth() != 1 {
		t.Fatalf("twotier-skew: depth = %v, want 1", h)
	}

	deep := deepTrees(t)
	taper := deep["fattree-taper"]
	h = NewHierarchy(taper, Capacities(taper))
	if h == nil || h.Depth() != 2 {
		t.Fatalf("fattree-taper: depth = %v, want 2", h)
	}
	if len(h.Levels[0].Blocks) != 2 || len(h.Levels[1].Blocks) != 4 {
		t.Fatalf("fattree-taper: blocks %d/%d, want pods 2 then racks 4",
			len(h.Levels[0].Blocks), len(h.Levels[1].Blocks))
	}
	pays := h.CombinePays(Capacities(taper))
	for k := range pays {
		for b, p := range pays[k] {
			if !p {
				t.Errorf("fattree-taper level %d block %d: combining should pay on the symmetric taper", k, b)
			}
		}
	}
	if steps := h.UpSweep(Capacities(taper)); len(steps) != 2 ||
		steps[0].Level != 1 || steps[1].Level != 0 {
		t.Errorf("fattree-taper: up-sweep %v, want racks (level 1) then pods (level 0)", steps)
	}

	grade := deep["caterpillar-grade"]
	h = NewHierarchy(grade, Capacities(grade))
	if h == nil || h.Depth() != 2 {
		t.Fatalf("caterpillar-grade: depth = %v, want 2", h)
	}
	if len(h.Levels[0].Blocks) != 2 || len(h.Levels[1].Blocks) != 4 {
		t.Fatalf("caterpillar-grade: blocks %d/%d, want halves 2 then 4",
			len(h.Levels[0].Blocks), len(h.Levels[1].Blocks))
	}
}

// TestHierarchyMemoized: HierarchyFor and Capacities return the shared
// per-tree instances on repeated calls.
func TestHierarchyMemoized(t *testing.T) {
	tree := deepTrees(t)["fattree-taper"]
	w1, w2 := Capacities(tree), Capacities(tree)
	if &w1[0] != &w2[0] {
		t.Error("Capacities not memoized on the tree")
	}
	h1, h2 := HierarchyFor(tree), HierarchyFor(tree)
	if h1 == nil || h1 != h2 {
		t.Errorf("HierarchyFor not memoized: %p vs %p", h1, h2)
	}
	star, err := topology.UniformStar(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h := HierarchyFor(star); h != nil {
		t.Errorf("uniform star: HierarchyFor = %v, want nil (memoized nil)", h)
	}
}
