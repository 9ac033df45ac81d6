package place

import (
	"math"

	"topompc/internal/topology"
)

// BlockPlan is a per-cut combining plan, one level of a Hierarchy: blocks
// partition the compute indices, and each block routes its exchanges
// through one combiner member before they cross the block boundary, so a
// duplicate-heavy payload crosses each weak cut once per block instead of
// once per node.
type BlockPlan struct {
	BlockOf  []int   // compute index -> block
	Combiner []int   // block -> compute index of the block's combiner
	Blocks   [][]int // block -> member compute indices
}

// minorityPays is the combining-pays predicate of Hierarchy.CombinePays: a
// block holding at most half of the total weight homes most of its payloads
// outside itself, so a pre-merge round saves on its boundary cut. Symmetric
// topologies split into exactly-half blocks whose weight sums differ from
// total/2 only by float rounding; the tolerance keeps the boundary case
// paying on both sides of the rounding.
func minorityPays(blockW, total float64) bool {
	return 2*blockW <= total*(1+1e-9)
}

// Hierarchy is the recursive weak-cut decomposition of a tree: a cut tree
// over the compute nodes that exposes one combining level per bandwidth
// band.
//
// Levels are partitions of the compute indices, coarsest first. Level k is
// the set of connected components of the tree after removing every edge
// with bandwidth below Thresholds[k]; thresholds grow level by level, so
// each level strictly refines the previous one (every level-k block is a
// union of level-k+1 blocks), and the deepest level is cut at half the
// strongest link: its blocks are the components left after removing the
// weak edges. Thresholds double from the weakest link upward (capped at
// half the strongest link), so each level peels one factor-2 bandwidth
// band: on a tapered fat-tree the coarse levels are the pods behind the
// thin core links and the deep levels are the racks, while a single-band
// topology (two-tier, star) collapses to depth 1.
//
// Protocols run the hierarchy bottom-up: payloads merge once per block per
// level (deepest first, where the pays-off test of CombinePays holds)
// before crossing that level's cut, so duplicate-heavy traffic crosses
// each weak cut once per block instead of once per node — at every
// bandwidth tier, not just the weakest.
type Hierarchy struct {
	// Levels holds the per-level block plans, coarsest first. Every level
	// covers all compute indices; a block that no deeper threshold splits
	// persists unchanged into the deeper levels.
	Levels []*BlockPlan
	// Thresholds[k] is the bandwidth cut of level k: level-k blocks are
	// the components connected by edges with bandwidth ≥ Thresholds[k].
	Thresholds []float64
	// Parents[k][b] is the index of the level k-1 block containing
	// level-k block b. Parents[0] is nil: level 0 splits the root block
	// of all compute nodes.
	Parents [][]int
}

// bandThresholds is the factor-2 threshold ladder: each
// threshold doubles the weakest bandwidth at or above the previous one,
// capped at half the strongest link (the deepest level's cut).
func bandThresholds(t *topology.Tree) []float64 {
	maxW := 0.0
	for e := 0; e < t.NumEdges(); e++ {
		if w := t.Bandwidth(topology.EdgeID(e)); !math.IsInf(w, 1) && w > maxW {
			maxW = w
		}
	}
	if maxW == 0 {
		return nil
	}
	final := maxW / 2

	var thresholds []float64
	prev := 0.0
	for {
		lo := math.Inf(1)
		for e := 0; e < t.NumEdges(); e++ {
			if w := t.Bandwidth(topology.EdgeID(e)); w >= prev && w < lo {
				lo = w
			}
		}
		th := final
		if 2*lo < final {
			th = 2 * lo
		}
		thresholds = append(thresholds, th)
		if th == final {
			break
		}
		prev = th
	}
	return thresholds
}

// NewHierarchy builds the weak-cut hierarchy of a tree. weights (indexed
// in ComputeNodes order, typically Capacities) choose each block's
// combiner: its heaviest member. Returns nil when no level has a weak cut
// worth protecting: a bandwidth-uniform tree (within a factor 2), or one
// where every split isolates single nodes at every level.
func NewHierarchy(t *topology.Tree, weights []float64) *Hierarchy {
	thresholds := bandThresholds(t)
	if len(thresholds) == 0 {
		return nil
	}

	h := &Hierarchy{}
	prevPlan := (*BlockPlan)(nil)
	for _, th := range thresholds {
		plan := thresholdBlocks(t, weights, th)
		if len(plan.Blocks) <= 1 {
			continue // no split yet; the level equals the root block
		}
		if prevPlan != nil && len(plan.Blocks) == len(prevPlan.Blocks) {
			continue // this band cut no additional edge between compute nodes
		}
		h.Levels = append(h.Levels, plan)
		h.Thresholds = append(h.Thresholds, th)
		if prevPlan == nil {
			h.Parents = append(h.Parents, nil)
		} else {
			parents := make([]int, len(plan.Blocks))
			for b, members := range plan.Blocks {
				parents[b] = prevPlan.BlockOf[members[0]]
			}
			h.Parents = append(h.Parents, parents)
		}
		prevPlan = plan
	}

	// A hierarchy where every block at every level is a singleton has
	// nothing to merge anywhere.
	for _, plan := range h.Levels {
		for _, members := range plan.Blocks {
			if len(members) > 1 {
				return h
			}
		}
	}
	return nil
}

// thresholdBlocks computes the block plan at one bandwidth threshold:
// blocks are the connected components of the tree restricted to edges
// with bandwidth ≥ th, combiners the heaviest members.
func thresholdBlocks(t *topology.Tree, weights []float64, th float64) *BlockPlan {
	comp, _ := components(t, func(e topology.EdgeID) bool { return t.Bandwidth(e) >= th })

	plan := &BlockPlan{BlockOf: make([]int, t.NumCompute())}
	blockID := make(map[int]int)
	for i, v := range t.ComputeNodes() {
		b, ok := blockID[comp[v]]
		if !ok {
			b = len(plan.Blocks)
			blockID[comp[v]] = b
			plan.Blocks = append(plan.Blocks, nil)
		}
		plan.BlockOf[i] = b
		plan.Blocks[b] = append(plan.Blocks[b], i)
	}
	plan.Combiner = make([]int, len(plan.Blocks))
	for b, members := range plan.Blocks {
		best := members[0]
		for _, m := range members[1:] {
			if weights[m] > weights[best] {
				best = m
			}
		}
		plan.Combiner[b] = best
	}
	return plan
}

// components labels every node with its connected component of the tree
// restricted to the edges keep accepts, components numbered in order of
// their smallest node, and reports how many there are.
func components(t *topology.Tree, keep func(e topology.EdgeID) bool) (comp []int, n int) {
	comp = make([]int, t.NumNodes())
	for i := range comp {
		comp[i] = -1
	}
	for start := range comp {
		if comp[start] != -1 {
			continue
		}
		comp[start] = n
		stack := []topology.NodeID{topology.NodeID(start)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range t.Neighbors(v) {
				if keep(h.Edge) && comp[h.To] == -1 {
					comp[h.To] = n
					stack = append(stack, h.To)
				}
			}
		}
		n++
	}
	return comp, n
}

// Depth reports the number of levels.
func (h *Hierarchy) Depth() int { return len(h.Levels) }

// Deepest is the hierarchy truncated to its deepest level: one level, cut
// at half the strongest link, with no parent. Its CombinePays is then the
// plain minority test and its UpSweep at most one step. Nil for a nil
// hierarchy.
func (h *Hierarchy) Deepest() *Hierarchy {
	if h == nil {
		return nil
	}
	k := len(h.Levels) - 1
	return &Hierarchy{Levels: h.Levels[k:], Thresholds: h.Thresholds[k:], Parents: [][]int{nil}}
}

// BlockWeights sums the given per-compute-node weights over each block of
// one level — the per-level capacities the combining decision compares.
func (h *Hierarchy) BlockWeights(level int, weights []float64) []float64 {
	plan := h.Levels[level]
	out := make([]float64, len(plan.Blocks))
	for b, members := range plan.Blocks {
		for _, i := range members {
			out[b] += weights[i]
		}
	}
	return out
}

// CombinePays flags, for every level, the blocks where a merge round pays
// off under weight-proportional homing. A block pays when it has at least
// two members holding a minority (at most half, within float tolerance) of
// the total weight — most of its payloads are homed outside it, so merging
// them before the level's cut saves up to a |block|× factor there — and it
// is not identical to its parent block, which already merged one level up.
// A majority-weight block keeps most payloads home anyway, and a singleton
// has nothing to merge: for those the merge round is pure overhead.
// Weights are indexed in ComputeNodes order.
func (h *Hierarchy) CombinePays(weights []float64) [][]bool {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make([][]bool, len(h.Levels))
	for k, plan := range h.Levels {
		pays := make([]bool, len(plan.Blocks))
		for b, members := range plan.Blocks {
			if len(members) < 2 {
				continue
			}
			if k > 0 {
				parent := h.Parents[k][b]
				if len(h.Levels[k-1].Blocks[parent]) == len(members) {
					continue // unsplit block; merging again is pure overhead
				}
			}
			var w float64
			for _, i := range members {
				w += weights[i]
			}
			pays[b] = minorityPays(w, total)
		}
		out[k] = pays
	}
	return out
}

// UpStep is one round of the bottom-up combining sweep derived by UpSweep:
// Target maps each compute index to the combiner it forwards its
// accumulated payload to at this step; an index whose block does not
// engage maps to itself (it keeps its payload).
type UpStep struct {
	// Level is the hierarchy level this step merges (an index into
	// Levels).
	Level int
	// Target is the per-compute-index forwarding map.
	Target []int
}

// UpSweep derives the multi-level combining schedule of the hierarchy:
// one step per level with at least one paying block (per CombinePays),
// ordered deepest level first. Consumers run one exchange round per step,
// each node forwarding its accumulated payload to Target (keeping it when
// Target is itself), so payloads merge once per block per level on the
// way up; whatever remains after the last step is sent directly. An empty
// schedule means combining pays nowhere and a single direct round is
// optimal.
func (h *Hierarchy) UpSweep(weights []float64) []UpStep {
	pays := h.CombinePays(weights)
	var steps []UpStep
	for k := len(h.Levels) - 1; k >= 0; k-- {
		plan := h.Levels[k]
		any := false
		target := make([]int, len(plan.BlockOf))
		for i, b := range plan.BlockOf {
			if pays[k][b] && plan.Combiner[b] != i {
				target[i] = plan.Combiner[b]
				any = true
			} else {
				target[i] = i
			}
		}
		if any {
			steps = append(steps, UpStep{Level: k, Target: target})
		}
	}
	return steps
}

// Memo keys for the per-tree caches (see topology.Tree.Memo).
type (
	capacitiesMemoKey struct{}
	hierarchyMemoKey  struct{}
)

// HierarchyFor returns the tree's weak-cut hierarchy under capacity
// weights, memoized on the tree like Capacities. The result is shared —
// callers must not modify it. May be nil (no weak cut worth protecting).
func HierarchyFor(t *topology.Tree) *Hierarchy {
	return t.Memo(hierarchyMemoKey{}, func() any {
		return NewHierarchy(t, Capacities(t))
	}).(*Hierarchy)
}
