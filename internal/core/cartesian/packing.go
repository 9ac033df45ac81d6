package cartesian

import (
	"fmt"
	"slices"
	"sort"

	"topompc/internal/topology"
)

// This file implements the power-of-two square packing of Lemma 5 and its
// hierarchical variant from §4.4.
//
// Squares are merged four-at-a-time into composites of twice the side
// (quadrant packing), so every composite is fully covered by the squares it
// contains. Packing the squares of each G† subtree into composites before
// handing them to the parent guarantees the contiguity the per-edge cost
// analysis needs: the rows and columns required below any tree edge are the
// unions of at most three composite ranges per size class, totalling at
// most 8·2^(i*) elements (§4.4).

// composite is either a leaf square owned by a compute node or a 2×2
// quadrant grouping of four composites of half its side.
type composite struct {
	side int64
	node topology.NodeID // owner when leaf (kids == nil)
	kids []*composite    // exactly 4 when internal
}

// PlacedSquare is a leaf square with its final position on the grid.
type PlacedSquare struct {
	Node topology.NodeID
	Side int64
	X, Y int64
}

// Rect converts the placed square to its grid rectangle (unclamped).
func (p PlacedSquare) Rect() Rect {
	return Rect{X0: p.X, X1: p.X + p.Side, Y0: p.Y, Y1: p.Y + p.Side}
}

// mergeComposites repeatedly combines four composites of equal side into
// one of double side, leaving at most three per size class. The relative
// order of survivors is deterministic (by ascending side, insertion order
// within a side).
func mergeComposites(cs []*composite) []*composite {
	buckets := make(map[int64][]*composite)
	var sides []int64
	push := func(c *composite) {
		if len(buckets[c.side]) == 0 {
			sides = append(sides, c.side)
		}
		buckets[c.side] = append(buckets[c.side], c)
	}
	for _, c := range cs {
		push(c)
	}
	slices.Sort(sides)
	for i := 0; i < len(sides); i++ {
		side := sides[i]
		for len(buckets[side]) >= 4 {
			b := buckets[side]
			quad := &composite{side: side * 2, kids: []*composite{b[0], b[1], b[2], b[3]}}
			buckets[side] = b[4:]
			if len(buckets[side*2]) == 0 {
				// Maintain ascending side order: side*2 is either already in
				// sides (later) or must be appended and re-sorted.
				found := false
				for _, s := range sides {
					if s == side*2 {
						found = true
						break
					}
				}
				if !found {
					sides = append(sides, side*2)
					slices.Sort(sides)
				}
			}
			buckets[side*2] = append(buckets[side*2], quad)
		}
	}
	var out []*composite
	for _, side := range sides {
		out = append(out, buckets[side]...)
	}
	return out
}

// resolve walks a composite, assigning absolute positions to its leaf
// squares; (x, y) is the composite's lower corner. Quadrants are laid out
// row-major: kid 0 at (0,0), 1 at (h,0), 2 at (0,h), 3 at (h,h).
func resolve(c *composite, x, y int64, out *[]PlacedSquare) {
	if c.kids == nil {
		*out = append(*out, PlacedSquare{Node: c.node, Side: c.side, X: x, Y: y})
		return
	}
	h := c.side / 2
	resolve(c.kids[0], x, y, out)
	resolve(c.kids[1], x+h, y, out)
	resolve(c.kids[2], x, y+h, out)
	resolve(c.kids[3], x+h, y+h, out)
}

// buddy is a power-of-two free-area allocator used to position the
// composites that do not participate in the fully-covered main square.
type buddy struct {
	free map[int64][]point // side -> available lower corners
}

type point struct{ x, y int64 }

func newBuddy() *buddy { return &buddy{free: make(map[int64][]point)} }

func (b *buddy) release(side int64, p point) {
	b.free[side] = append(b.free[side], p)
}

// alloc carves a block of exactly the given side, splitting a larger free
// block if necessary. ok is false when no free block is large enough.
func (b *buddy) alloc(side int64) (point, bool) {
	if ps := b.free[side]; len(ps) > 0 {
		p := ps[len(ps)-1]
		b.free[side] = ps[:len(ps)-1]
		return p, true
	}
	// Find the smallest larger block.
	bigger := int64(-1)
	for s, ps := range b.free {
		if s > side && len(ps) > 0 && (bigger == -1 || s < bigger) {
			bigger = s
		}
	}
	if bigger == -1 {
		return point{}, false
	}
	ps := b.free[bigger]
	p := ps[len(ps)-1]
	b.free[bigger] = ps[:len(ps)-1]
	h := bigger / 2
	b.release(h, point{p.x + h, p.y})
	b.release(h, point{p.x, p.y + h})
	b.release(h, point{p.x + h, p.y + h})
	b.release(h, point{p.x, p.y})
	return b.alloc(side)
}

// packComposites positions a merged composite list: the largest composite
// is placed at the origin (it is fully covered by construction, Lemma 5),
// and the remaining composites are buddy-allocated into the other three
// quadrants of the doubled square. Returns the placed squares and the side
// of the fully covered region.
func packComposites(cs []*composite) ([]PlacedSquare, int64, error) {
	if len(cs) == 0 {
		return nil, 0, nil
	}
	// Largest composite: mergeComposites orders ascending, so it is last.
	largest := cs[len(cs)-1]
	rest := cs[:len(cs)-1]
	var placed []PlacedSquare
	resolve(largest, 0, 0, &placed)

	L := largest.side
	b := newBuddy()
	b.release(L, point{L, 0})
	b.release(L, point{0, L})
	b.release(L, point{L, L})
	// Allocate the rest in descending side order (required by the buddy
	// argument of Lemma 5).
	ordered := append([]*composite(nil), rest...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].side > ordered[j].side })
	for _, c := range ordered {
		p, ok := b.alloc(c.side)
		if !ok {
			return nil, 0, fmt.Errorf("cartesian: packing overflow: composite of side %d does not fit", c.side)
		}
		resolve(c, p.x, p.y, &placed)
	}
	return placed, L, nil
}

// PackLemma5 packs standalone squares (sides must be powers of two) and
// returns their positions plus the side of the fully covered square at the
// origin. Lemma 5 guarantees the covered side is at least sqrt(Σ side²)/2.
func PackLemma5(sides []int64, owners []topology.NodeID) ([]PlacedSquare, int64, error) {
	if len(sides) != len(owners) {
		return nil, 0, fmt.Errorf("cartesian: %d sides for %d owners", len(sides), len(owners))
	}
	leaves := make([]*composite, len(sides))
	for i, s := range sides {
		if s <= 0 || s&(s-1) != 0 {
			return nil, 0, fmt.Errorf("cartesian: side %d is not a positive power of two", s)
		}
		leaves[i] = &composite{side: s, node: owners[i]}
	}
	return packComposites(mergeComposites(leaves))
}

// PackOnTree packs the compute nodes' squares hierarchically along G†
// (§4.4): at every node of G†, the composites of its children are merged
// before being passed upward, so the squares of every subtree stay
// contiguous and the data crossing any link (u, parent(u)) is bounded by
// the total composite perimeter 8·2^(i*) of that subtree.
//
// side maps each compute node (by NodeID) to its square side (a power of
// two; 0 means no square). Returns placed squares and the covered side.
func PackOnTree(d *topology.Directed, side map[topology.NodeID]int64) ([]PlacedSquare, int64, error) {
	comps := make(map[topology.NodeID][]*composite)
	for _, v := range d.PostOrder() {
		var list []*composite
		for _, c := range d.Children(v) {
			list = append(list, comps[c]...)
			delete(comps, c)
		}
		if s, ok := side[v]; ok && s > 0 {
			if s&(s-1) != 0 {
				return nil, 0, fmt.Errorf("cartesian: side %d at node %v is not a power of two", s, v)
			}
			list = append(list, &composite{side: s, node: v})
		}
		comps[v] = mergeComposites(list)
	}
	return packComposites(comps[d.Root()])
}
