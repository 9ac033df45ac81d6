package cartesian

import (
	"fmt"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Star runs StarCartesianProduct (Algorithm 4) on a star topology for
// |R| = |S| = N/2: if some node already holds more than half the input,
// everything is gathered there (optimal by Theorem 3); otherwise the
// weighted HyperCube protocol of §4.2 assigns each node a power-of-two
// square with side proportional to its link bandwidth, packs the squares by
// Lemma 5, and distributes the tuples in a single deterministic round.
//
// Lemma 7: the cost is within O(1) of the optimum.
func Star(t *topology.Tree, r, s dataset.Placement, opts ...netsim.Option) (*Result, error) {
	if err := requireStar(t); err != nil {
		return nil, err
	}
	in, err := newInstance(t, r, s)
	if err != nil {
		return nil, err
	}
	in.opts = opts
	if in.sizeR != in.sizeS {
		return nil, fmt.Errorf("cartesian: Star requires |R| = |S| (got %d, %d); use Unequal", in.sizeR, in.sizeS)
	}
	if in.sizeR == 0 {
		return emptyResult(in), nil
	}
	n := in.loads.Total()

	// Line 1-2: a majority holder receives everything.
	if k := majorityHolder(in, n); k >= 0 {
		return gatherRects(in, k)
	}

	// Lines 3-4: weighted HyperCube, with the shrink-to-fit refinement.
	rects, err := shrinkToFit(in, func(shift uint) ([]PlacedSquare, error) {
		sides := starSides(t, n>>shift)
		sideList := make([]int64, len(in.nodes))
		for i, v := range in.nodes {
			sideList[i] = sides[v]
		}
		placed, _, err := PackLemma5(sideList, in.nodes)
		return placed, err
	})
	if err != nil {
		return nil, err
	}
	return distribute(in, rects, "whc")
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

// majorityHolder returns the compute index of a node with N_v > N/2, or -1.
func majorityHolder(in *instance, n int64) int {
	for i, v := range in.nodes {
		if 2*in.loads[v] > n {
			return i
		}
	}
	return -1
}

// gatherRects assigns the full grid to one node and distributes.
func gatherRects(in *instance, target int) (*Result, error) {
	rects := make([]Rect, len(in.nodes))
	rects[target] = Rect{X0: 0, X1: in.sizeR, Y0: 0, Y1: in.sizeS}
	return distribute(in, rects, "gather")
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

func emptyResult(in *instance) *Result {
	return &Result{
		Rects:    make([]Rect, len(in.nodes)),
		RKeys:    make([][]uint64, len(in.nodes)),
		SKeys:    make([][]uint64, len(in.nodes)),
		Report:   &netsim.Report{Tree: in.t},
		Strategy: "empty",
	}
}

func requireStar(t *topology.Tree) error {
	if !t.IsStar() {
		return fmt.Errorf("cartesian: not a star topology")
	}
	return nil
}
