package cartesian

import (
	"fmt"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Tree runs the general symmetric-tree cartesian-product protocol of §4.4
// for |R| = |S| = N/2. It orients the tree into G† (§4.1); if the G† root
// is a compute node, gathering everything there is optimal, otherwise
// Algorithm 5 (BalancedPackingTree) sizes a power-of-two square per compute
// node, the squares are packed hierarchically along G† so every subtree's
// squares stay contiguous, and a single round distributes the tuples.
//
// Theorem 5: the cost matches the larger of the Theorem 3 and Theorem 4
// lower bounds up to a constant factor.
//
// On a star this is StarCartesianProduct (Algorithm 4, Lemma 7): G†'s root
// is a compute node exactly when that node holds more than half the input,
// and otherwise the w̃ of Algorithm 5 reduce to the link bandwidths, so the
// sides are those of equation (1) and the packing is Lemma 5's.
func Tree(t *topology.Tree, r, s dataset.Placement, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, r, s)
	if err != nil {
		return nil, err
	}
	in.opts = opts
	if in.sizeR != in.sizeS {
		return nil, fmt.Errorf("cartesian: Tree requires |R| = |S| (got %d, %d); the unequal case on general trees is open (§4.5)", in.sizeR, in.sizeS)
	}
	if in.sizeR == 0 {
		return emptyResult(in), nil
	}

	// Normalize: compute nodes become leaves (§2.1) so that the l-mass of
	// Algorithm 5 lands exactly on square-bearing nodes.
	norm, err := normalizeInstance(in)
	if err != nil {
		return nil, err
	}
	in2 := norm.in

	d := topology.Orient(in2.t, in2.loads)
	lay := layout{strategy: "tree"}
	if in2.t.IsCompute(d.Root()) {
		// Gather to the G† root: optimal when the root is a compute node.
		lay = gather(in2, in2.t.ComputeIndex(d.Root()))
	} else {
		n := in2.loads.Total()
		dims := balancedPackingTree(d, n)
		lay.rects, err = shrinkToFit(in2, func(shift uint) ([]PlacedSquare, error) {
			side := make(map[topology.NodeID]int64, len(dims.side))
			for v, l := range dims.l {
				if in2.t.IsCompute(v) {
					side[v] = nextPow2F(float64(n>>shift) * l)
				}
			}
			placed, _, err := PackOnTree(d, side)
			return placed, err
		})
		if err != nil {
			return nil, err
		}
	}
	res, err := distribute(in2, lay)
	if err != nil {
		return nil, err
	}
	return norm.remap(res), nil
}

// shrinkToFit packs at successively halved scales while the resulting
// rectangles still cover the grid, and returns the smallest covering
// assignment. The power-of-two rounding of equation (1) can overshoot the
// grid by up to 2× per side (4× in area), which concentrates the whole grid
// on one node; shrinking restores the bandwidth-proportional split without
// weakening any guarantee (the unshrunk assignment is always valid, and
// every shrink step is verified geometrically).
func shrinkToFit(in *instance, pack func(shift uint) ([]PlacedSquare, error)) ([]Rect, error) {
	var best []Rect
	for shift := uint(0); shift < 40; shift++ {
		placed, err := pack(shift)
		if err != nil {
			return nil, err
		}
		rects := rectsFromPlacement(in, placed)
		for i := range rects {
			rects[i] = rects[i].Clamp(in.sizeR, in.sizeS)
		}
		if !CoversGrid(rects, in.sizeR, in.sizeS) {
			break
		}
		best = rects
	}
	if best == nil {
		return nil, fmt.Errorf("cartesian: packing does not cover the %d×%d grid (internal error)", in.sizeR, in.sizeS)
	}
	return best, nil
}

// rectsFromPlacement converts placed squares to per-compute-index grid
// rectangles (clamping happens in distribute).
func rectsFromPlacement(in *instance, placed []PlacedSquare) []Rect {
	rects := make([]Rect, len(in.nodes))
	for _, p := range placed {
		rects[in.t.ComputeIndex(p.Node)] = p.Rect()
	}
	return rects
}

// normalized carries an instance transplanted onto the leaf-normalized
// tree, plus the mapping needed to express results in the original
// compute-node order.
type normalized struct {
	in     *instance
	toOrig []int // normalized compute index -> original compute index
	ident  bool
}

// normalizeInstance applies EnsureComputeLeaves and re-indexes the
// placements to the new tree's compute order. The stub links have infinite
// bandwidth, so costs on the normalized tree equal costs on the original.
func normalizeInstance(in *instance) (*normalized, error) {
	t2, m := topology.EnsureComputeLeaves(in.t)
	if t2 == in.t {
		return &normalized{in: in, ident: true}, nil
	}
	nodes2 := t2.ComputeNodes()
	r2 := make(dataset.Placement, len(nodes2))
	s2 := make(dataset.Placement, len(nodes2))
	toOrig := make([]int, len(nodes2))
	for i := range toOrig {
		toOrig[i] = -1
	}
	for i, v := range in.t.ComputeNodes() {
		j := t2.ComputeIndex(m.OldToNew[v])
		if j < 0 {
			return nil, fmt.Errorf("cartesian: node %v lost by normalization", v)
		}
		r2[j] = in.r[i]
		s2[j] = in.s[i]
		toOrig[j] = i
	}
	in2, err := newInstance(t2, r2, s2)
	if err != nil {
		return nil, err
	}
	in2.opts = in.opts
	// Keep the original global rank labeling so rectangle coordinates mean
	// the same thing on both trees: fragment j keeps the offsets it had at
	// its original index. Offsets only need to tile [0, size) disjointly.
	for j, i := range toOrig {
		if i >= 0 {
			in2.offR[j] = in.offR[i]
			in2.offS[j] = in.offS[i]
		}
	}
	return &normalized{in: in2, toOrig: toOrig}, nil
}

// remap expresses a result on the normalized tree in the original
// compute-node order.
func (n *normalized) remap(res *Result) *Result {
	if n.ident {
		return res
	}
	out := &Result{
		Rects:    make([]Rect, len(n.toOrig)),
		RKeys:    make([][]uint64, len(n.toOrig)),
		SKeys:    make([][]uint64, len(n.toOrig)),
		Report:   res.Report,
		Strategy: res.Strategy,
	}
	for j, i := range n.toOrig {
		if i < 0 {
			continue
		}
		out.Rects[i] = res.Rects[j]
		out.RKeys[i] = res.RKeys[j]
		out.SKeys[i] = res.SKeys[j]
	}
	return out
}
