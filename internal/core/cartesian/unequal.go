package cartesian

import (
	"fmt"
	"sort"

	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Unequal runs the generalized star cartesian product of §4.5 and Appendix
// A.1 (Algorithms 7–8) for |R| ≠ |S| (it also accepts equal sizes). It
// lays out Algorithm 8's strategies and prices each with the round it would
// run, then runs the cheapest:
//
//   - a gather of everything at each compute node, in compute order (a
//     majority holder's gather is optimal by Theorem 3);
//   - a broadcast of the smaller relation while the larger stays in place:
//     each node's rectangle is the full small axis crossed with its own
//     fragment of the large relation (optimal when the smaller relation is
//     below every cut);
//   - the packing at the scale L* solving the output-coverage inequality
//     (2) (lowerbound.CoverageNumber): each node gets a full-height column
//     of the grid when its share w_v·L* reaches the small side, and a
//     power-of-two square stacked into full-height strips otherwise — the
//     rectangle analogue of the wHC packing.
//
// Ties go to the earlier layout (netsim.Engine.RunCheapest). The smaller
// relation is placed on the X axis of the broadcast and the packing; their
// rectangles are transposed back when |S| < |R|.
func Unequal(t *topology.Tree, r, s dataset.Placement, opts ...netsim.Option) (*Result, error) {
	if !t.IsStar() {
		return nil, fmt.Errorf("cartesian: not a star topology")
	}
	in, err := newInstance(t, r, s)
	if err != nil {
		return nil, err
	}
	in.opts = opts
	if in.sizeR == 0 || in.sizeS == 0 {
		return emptyResult(in), nil
	}
	layouts, err := unequalLayouts(in)
	if err != nil {
		return nil, err
	}
	return distribute(in, layouts...)
}

// unequalLayouts lays out Unequal's candidates in the order the chooser
// takes them: a gather at every compute node, the broadcast, the packing.
func unequalLayouts(in *instance) ([]layout, error) {
	transposed := in.sizeR > in.sizeS
	small, large := in.sizeR, in.sizeS
	off, frags := in.offS, in.s // the larger relation's fragments
	if transposed {
		small, large = large, small
		off, frags = in.offR, in.r
	}
	weights := make([]float64, len(in.nodes))
	for i, v := range in.nodes {
		_, e := in.t.Parent(v)
		weights[i] = in.t.Bandwidth(e)
	}
	packRects, err := unequalRects(weights, small, large)
	if err != nil {
		return nil, err
	}
	bcastRects := make([]Rect, len(in.nodes))
	for i := range in.nodes {
		bcastRects[i] = Rect{X0: 0, X1: small, Y0: off[i], Y1: off[i] + int64(len(frags[i]))}
	}
	if transposed {
		packRects, bcastRects = transpose(packRects), transpose(bcastRects)
	}

	layouts := make([]layout, 0, len(in.nodes)+2)
	for k := range in.nodes {
		layouts = append(layouts, gather(in, k))
	}
	return append(layouts, layout{bcastRects, "broadcast"}, layout{packRects, "unequal"}), nil
}

func transpose(rects []Rect) []Rect {
	out := make([]Rect, len(rects))
	for i, r := range rects {
		out[i] = Rect{X0: r.Y0, X1: r.Y1, Y0: r.X0, Y1: r.X1}
	}
	return out
}

// unequalRects assigns rectangles covering the small × large grid: columns
// for nodes whose share reaches the small side, strips of stacked
// power-of-two squares for the rest. The scale starts at the coverage
// number L* and doubles until the geometry verifiably covers the grid
// (rounding and partial strips waste at most a constant factor).
func unequalRects(weights []float64, small, large int64) ([]Rect, error) {
	base := lowerbound.CoverageNumber(weights, small, large)
	if base <= 0 {
		base = 1
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })

	scale := base
	for attempt := 0; attempt < 64; attempt++ {
		rects := make([]Rect, len(weights))
		var yCur int64

		// Columns first: full-height slabs of the Y axis.
		type sq struct {
			idx  int
			side int64
		}
		var squares []sq
		for _, i := range order {
			if weights[i] <= 0 {
				continue
			}
			side := nextPow2F(weights[i] * scale)
			if side >= small {
				rects[i] = Rect{X0: 0, X1: small, Y0: yCur, Y1: yCur + side}
				yCur += side
			} else {
				squares = append(squares, sq{idx: i, side: side})
			}
		}
		// Strips: squares of equal side stacked along X to fill the height;
		// only completed strips advance the Y cursor, partial strips overlap
		// the next band (wasted but harmless).
		for j := 0; j < len(squares); {
			side := squares[j].side
			perStrip := (small + side - 1) / side
			var k int64
			for ; j < len(squares) && squares[j].side == side; j++ {
				x := (k % perStrip) * side
				rects[squares[j].idx] = Rect{X0: x, X1: x + side, Y0: yCur, Y1: yCur + side}
				k++
				if k%perStrip == 0 {
					yCur += side
				}
			}
		}
		if yCur >= large && CoversGrid(rects, small, large) {
			return rects, nil
		}
		scale *= 2
	}
	return nil, fmt.Errorf("cartesian: unequal packing failed to cover a %d×%d grid", small, large)
}
