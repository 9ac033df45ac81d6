// Package cartesian implements the cartesian-product protocols of §4 of the
// paper: the tree protocol of §4.4 built on Algorithm 5
// (BalancedPackingTree) and the hierarchical power-of-two square packing of
// Lemma 5 — on a star it is Algorithm 4 (StarCartesianProduct), the
// weighted HyperCube of §4.2 — plus the generalized unequal-size star
// algorithm of Appendix A.1 and a topology-oblivious baseline.
//
// Every strategy reduces to the same shape: lay out an axis-aligned
// rectangle of the |R| × |S| output grid for each compute node, then run one
// shared single-round distribution protocol that multicasts each input
// tuple to every node whose rectangle covers its row (for R) or column (for
// S). One driver runs every protocol; a protocol with several layouts has
// each priced on the round it would run and runs the cheapest
// (netsim.Engine.RunCheapest). Each node
// then enumerates its rectangle locally. Correctness is the
// geometric statement that the rectangles cover the grid; cost is measured
// by the netsim engine and compared against the Theorem 3 and Theorem 4
// lower bounds.
package cartesian

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Rect is a half-open axis-aligned region [X0, X1) × [Y0, Y1) of the output
// grid, where the X axis indexes R by global rank and the Y axis indexes S.
// An empty rectangle (X0 >= X1 or Y0 >= Y1) means the node receives nothing.
type Rect struct {
	X0, X1, Y0, Y1 int64
}

// Empty reports whether the rectangle covers no cells.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Area reports the number of covered cells.
func (r Rect) Area() int64 {
	if r.Empty() {
		return 0
	}
	return (r.X1 - r.X0) * (r.Y1 - r.Y0)
}

// Clamp intersects the rectangle with [0, maxX) × [0, maxY).
func (r Rect) Clamp(maxX, maxY int64) Rect {
	c := Rect{
		X0: max(r.X0, 0), X1: min(r.X1, maxX),
		Y0: max(r.Y0, 0), Y1: min(r.Y1, maxY),
	}
	if c.Empty() {
		return Rect{}
	}
	return c
}

// CoversGrid reports whether the union of the rectangles covers the full
// [0, sizeR) × [0, sizeS) grid, by sweeping the compressed Y axis and
// checking X-interval coverage in every slab. Runs in O(k² log k) for k
// rectangles — independent of the grid size.
func CoversGrid(rects []Rect, sizeR, sizeS int64) bool {
	if sizeR == 0 || sizeS == 0 {
		return true
	}
	ys := []int64{0, sizeS}
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		ys = append(ys, max(r.Y0, 0), min(r.Y1, sizeS))
	}
	slices.Sort(ys)
	ys = slices.Compact(ys)
	for i := 0; i+1 < len(ys); i++ {
		lo, hi := ys[i], ys[i+1]
		if lo >= sizeS || hi <= 0 || lo >= hi {
			continue
		}
		// X intervals active in slab [lo, hi).
		var ivs []interval
		for _, r := range rects {
			if r.Empty() || r.Y0 > lo || r.Y1 < hi {
				continue
			}
			a, b := max(r.X0, 0), min(r.X1, sizeR)
			if a >= b {
				continue // rectangle lies outside the grid's X range
			}
			ivs = append(ivs, interval{a, b})
		}
		slices.SortFunc(ivs, compareIvs)
		covered := int64(0)
		for _, v := range ivs {
			if v.a > covered {
				return false
			}
			if v.b > covered {
				covered = v.b
			}
		}
		if covered < sizeR {
			return false
		}
	}
	return true
}

// interval is a half-open [a, b) range on one grid axis.
type interval struct{ a, b int64 }

// compareIvs orders intervals by start, then by end.
func compareIvs(x, y interval) int {
	return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
}

// instance validates a cartesian-product input.
type instance struct {
	t     *topology.Tree
	nodes []topology.NodeID
	r, s  dataset.Placement
	sizeR int64
	sizeS int64
	loads topology.Loads // N_v = |R_v| + |S_v|
	offR  []int64        // global rank offset of each node's R fragment
	offS  []int64
	opts  []netsim.Option // engine options for the distribution round
}

func newInstance(t *topology.Tree, r, s dataset.Placement) (*instance, error) {
	nodes := t.ComputeNodes()
	if len(r) != len(nodes) || len(s) != len(nodes) {
		return nil, fmt.Errorf("cartesian: placements cover %d/%d nodes, tree has %d compute nodes",
			len(r), len(s), len(nodes))
	}
	in := &instance{
		t: t, nodes: nodes, r: r, s: s,
		offR: make([]int64, len(nodes)), offS: make([]int64, len(nodes)),
	}
	loads := make(topology.Loads, t.NumNodes())
	for i, v := range nodes {
		in.offR[i] = in.sizeR
		in.offS[i] = in.sizeS
		in.sizeR += int64(len(r[i]))
		in.sizeS += int64(len(s[i]))
		loads[v] = int64(len(r[i]) + len(s[i]))
	}
	in.loads = loads
	return in, nil
}

// nextPow2 returns the smallest power of two >= x (and >= 1).
func nextPow2(x int64) int64 {
	if x <= 1 {
		return 1
	}
	p := int64(1)
	for p < x {
		p <<= 1
	}
	return p
}

// nextPow2F returns the smallest power of two >= x for positive float x.
func nextPow2F(x float64) int64 {
	if x <= 1 || math.IsNaN(x) {
		return 1
	}
	return nextPow2(int64(math.Ceil(x)))
}
