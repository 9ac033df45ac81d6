package cartesian

import (
	"fmt"
	"slices"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// Result is the outcome of a cartesian-product protocol.
type Result struct {
	// Rects is the grid rectangle enumerated by each compute node (in
	// ComputeNodes order), clamped to the grid; together they cover it.
	Rects []Rect
	// RKeys and SKeys are the R- and S-tuples each node holds after the
	// round (its own retained tuples included), in global rank order.
	RKeys [][]uint64
	SKeys [][]uint64
	// Report is the cost accounting.
	Report *netsim.Report
	// Strategy identifies the layout that ran: "gather" (the whole grid at
	// one node), "tree" (Algorithm 5's squares packed along G†), "uniform"
	// (the oblivious HyperCube), "broadcast" or "unequal" (Unequal's
	// broadcast of the smaller relation or its column-and-strip packing), or
	// "empty" when a relation is empty and nothing moves.
	Strategy string
}

// Pairs returns the number of output pairs each node enumerates.
func (r *Result) Pairs() int64 {
	var n int64
	for _, rect := range r.Rects {
		n += rect.Area()
	}
	return n
}

// emptyResult is the result when a relation is empty: no pairs, no round.
func emptyResult(in *instance) *Result {
	return &Result{
		Rects:    make([]Rect, len(in.nodes)),
		RKeys:    make([][]uint64, len(in.nodes)),
		SKeys:    make([][]uint64, len(in.nodes)),
		Report:   netsim.NewEngine(in.t).Report(),
		Strategy: "empty",
	}
}

// layout is one assignment of grid rectangles to the compute nodes, in
// compute order, and the strategy name it runs under.
type layout struct {
	rects    []Rect
	strategy string
}

// gather assigns the full grid to one compute node.
func gather(in *instance, target int) layout {
	rects := make([]Rect, len(in.nodes))
	rects[target] = Rect{X0: 0, X1: in.sizeR, Y0: 0, Y1: in.sizeS}
	return layout{rects, "gather"}
}

// axes are a layout's elementary segments along R's axis and S's.
type axes struct{ x, y []segment }

// distribute is the one driver of every strategy. Each layout's rectangles
// are clamped to the grid and must cover it. A single layout runs unpriced;
// of several, each is planned and priced with Exchange.Price on the engine
// that runs the round, and the cheapest runs, ties going to the earlier
// layout (Algorithm 8's "pick the best of").
//
// The round is shared by every strategy: each node multicasts every R-tuple
// to the nodes whose rectangles cover its global rank (and likewise
// S-tuples by column). Tuples are batched by the elementary segments of the
// rectangle boundaries, so each (owner, destination-set) pair costs one
// multicast and shared links are charged once per element (Steiner
// accounting).
func distribute(in *instance, layouts ...layout) (*Result, error) {
	plans := make([]axes, len(layouts))
	for i, l := range layouts {
		rects := l.rects
		if len(rects) != len(in.nodes) {
			return nil, fmt.Errorf("cartesian: %d rects for %d nodes", len(rects), len(in.nodes))
		}
		for j := range rects {
			rects[j] = rects[j].Clamp(in.sizeR, in.sizeS)
		}
		if in.sizeR > 0 && in.sizeS > 0 && !CoversGrid(rects, in.sizeR, in.sizeS) {
			return nil, fmt.Errorf("cartesian: %s rectangles do not cover the %d×%d grid", l.strategy, in.sizeR, in.sizeS)
		}
		plans[i] = axes{
			x: segments(rects, in.sizeR, func(r Rect) (int64, int64) { return r.X0, r.X1 }, in.nodes),
			y: segments(rects, in.sizeS, func(r Rect) (int64, int64) { return r.Y0, r.Y1 }, in.nodes),
		}
	}

	e := netsim.NewEngine(in.t, in.opts...)
	best := 0
	if len(layouts) > 1 {
		var bestCost float64
		for i := range plans {
			x := e.Exchange()
			in.plan(x, plans[i])
			if cost, _ := x.Price(); i == 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
	}
	x := e.Exchange()
	in.plan(x, plans[best])
	x.Execute()

	res := &Result{
		Rects:    layouts[best].rects,
		RKeys:    make([][]uint64, len(in.nodes)),
		SKeys:    make([][]uint64, len(in.nodes)),
		Strategy: layouts[best].strategy,
	}
	for i, v := range in.nodes {
		res.RKeys[i] = e.Inbox(v).Keys(netsim.TagR)
		res.SKeys[i] = e.Inbox(v).Keys(netsim.TagS)
	}
	res.Report = e.Report()
	return res, nil
}

// plan queues the round of a layout: every node sends its R fragment along
// the layout's X segments and its S fragment along its Y segments.
func (in *instance) plan(x *netsim.Exchange, a axes) {
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := in.t.ComputeIndex(v)
		sendAxis(out, a.x, in.offR[i], in.r[i], netsim.TagR)
		sendAxis(out, a.y, in.offS[i], in.s[i], netsim.TagS)
	})
}

// segment is a maximal rank interval whose covering destination set is
// constant.
type segment struct {
	lo, hi int64
	dsts   []topology.NodeID
}

// segments slices one grid axis at every rectangle boundary and records the
// covering node set of each elementary interval.
func segments(rects []Rect, size int64, axis func(Rect) (int64, int64), nodes []topology.NodeID) []segment {
	if size == 0 {
		return nil
	}
	cuts := []int64{0, size}
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		lo, hi := axis(r)
		cuts = append(cuts, max(lo, 0), min(hi, size))
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	var segs []segment
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if lo >= hi {
			continue
		}
		var dsts []topology.NodeID
		for j, r := range rects {
			if r.Empty() {
				continue
			}
			a, b := axis(r)
			if a <= lo && hi <= b {
				dsts = append(dsts, nodes[j])
			}
		}
		segs = append(segs, segment{lo: lo, hi: hi, dsts: dsts})
	}
	return segs
}

// sendAxis multicasts one owner's fragment (global ranks [off, off+len))
// along the precomputed segments.
func sendAxis(out *netsim.Outbox, segs []segment, off int64, frag []uint64, tag netsim.Tag) {
	if len(frag) == 0 {
		return
	}
	end := off + int64(len(frag))
	for _, sg := range segs {
		lo, hi := max(sg.lo, off), min(sg.hi, end)
		if lo >= hi || len(sg.dsts) == 0 {
			continue
		}
		out.Multicast(sg.dsts, tag, frag[lo-off:hi-off])
	}
}

// Verify checks a cartesian-product result: the rectangles cover the grid
// and every node received exactly the R-rows and S-columns its rectangle
// spans, which together imply every output pair is enumerated somewhere.
func Verify(r, s dataset.Placement, res *Result) error {
	globalR, globalS := r.Flatten(), s.Flatten()
	sizeR, sizeS := int64(len(globalR)), int64(len(globalS))
	if sizeR == 0 || sizeS == 0 {
		return nil
	}
	if !CoversGrid(res.Rects, sizeR, sizeS) {
		return fmt.Errorf("cartesian: output rectangles do not cover the grid")
	}
	var ck keyChecker
	for i, rect := range res.Rects {
		if rect.Empty() {
			if len(res.RKeys[i]) > 0 || len(res.SKeys[i]) > 0 {
				return fmt.Errorf("cartesian: node %d has an empty rectangle but received data", i)
			}
			continue
		}
		if err := ck.check(res.RKeys[i], globalR[rect.X0:rect.X1]); err != nil {
			return fmt.Errorf("cartesian: node %d R-rows: %w", i, err)
		}
		if err := ck.check(res.SKeys[i], globalS[rect.Y0:rect.Y1]); err != nil {
			return fmt.Errorf("cartesian: node %d S-cols: %w", i, err)
		}
	}
	return nil
}

// keyChecker compares key multisets; one Verify reuses its sort buffers for
// every node.
type keyChecker struct{ a, b, tmp []uint64 }

// check reports whether got and want hold the same keys with the same
// multiplicities. Deliveries arrive in global rank order, so the two are
// normally the same sequence, which settles it without sorting.
func (c *keyChecker) check(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("received %d keys, want %d", len(got), len(want))
	}
	if slices.Equal(got, want) {
		return nil
	}
	c.a, c.tmp = par.SerialSortUint64(append(c.a[:0], got...), c.tmp)
	c.b, c.tmp = par.SerialSortUint64(append(c.b[:0], want...), c.tmp)
	for i := range c.a {
		if c.a[i] != c.b[i] {
			return fmt.Errorf("key multiset mismatch at %d", i)
		}
	}
	return nil
}
