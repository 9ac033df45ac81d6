package graph

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"topompc/internal/hashing"
	"topompc/internal/topology"
)

// Ref is the centralized union-find reference answer a protocol run is
// verified against.
type Ref struct {
	// Count is the number of connected components.
	Count int64
	// Labels maps every vertex to its canonical component label (the
	// minimum vertex id of the component).
	Labels map[uint64]uint64
	// Checksum fingerprints the labeling order-independently.
	Checksum uint64
	// edges is the input the reference was built from (not a copy), which
	// VerifyForest holds forest edges to.
	edges Placement
}

// unionFind is a slice-based path-halving union-by-size forest over a
// renumbered vertex set: arbitrary uint64 ids are mapped onto dense
// indices once (sorted, so index order equals id order) and the forest
// itself is two flat arrays.
type unionFind struct {
	ids    []uint64 // sorted distinct vertex ids; position = index
	parent []int32
	size   []int32
}

// newUnionFind builds the forest over the distinct ids appearing in verts
// (duplicates welcome; the slice is consumed as scratch).
func newUnionFind(verts []uint64) *unionFind {
	slices.Sort(verts)
	ids := slices.Compact(verts)
	u := &unionFind{
		ids:    ids,
		parent: make([]int32, len(ids)),
		size:   make([]int32, len(ids)),
	}
	for k := range u.parent {
		u.parent[k] = int32(k)
		u.size[k] = 1
	}
	return u
}

// index resolves an id known to be in the vertex set.
func (u *unionFind) index(v uint64) int32 {
	k, _ := slices.BinarySearch(u.ids, v)
	return int32(k)
}

func (u *unionFind) find(v int32) int32 {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]]
		v = u.parent[v]
	}
	return v
}

// union merges the components of a and b; it reports false when they were
// already connected.
func (u *unionFind) union(a, b int32) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}

// Checksum fingerprints a vertex → label map order-independently; the
// protocols and the reference compute the same quantity so any labeling
// divergence is caught without comparing maps entry by entry.
func Checksum(labels map[uint64]uint64) uint64 {
	var sum uint64
	for v, l := range labels {
		sum += hashing.Mix64(v + hashing.Mix64(l))
	}
	return sum
}

// Reference computes components, canonical min-labels, and the labeling
// checksum centrally with union-find.
func Reference(edges Placement) *Ref {
	total := 0
	for _, frag := range edges {
		total += len(frag)
	}
	verts := make([]uint64, 0, 2*total)
	for _, frag := range edges {
		for _, e := range frag {
			verts = append(verts, e.U, e.V)
		}
	}
	u := newUnionFind(verts)
	for _, frag := range edges {
		for _, e := range frag {
			if e.U != e.V {
				u.union(u.index(e.U), u.index(e.V))
			}
		}
	}
	// Canonicalize: the minimum vertex of each component is the first of
	// its indices in ascending order, since index order equals id order.
	n := len(u.ids)
	minOf := make([]int32, n)
	for k := range minOf {
		minOf[k] = -1
	}
	count := int64(0)
	labels := make(map[uint64]uint64, n)
	for k := 0; k < n; k++ {
		r := u.find(int32(k))
		if minOf[r] < 0 {
			minOf[r] = int32(k)
			count++
		}
		labels[u.ids[k]] = u.ids[minOf[r]]
	}
	ref := &Ref{Count: count, Labels: labels, edges: edges}
	ref.Checksum = Checksum(ref.Labels)
	return ref
}

// Verify checks a protocol run against the reference answer: component
// count and labeling checksum must match, and a witness forest, when the
// run produced one, must be a spanning forest of the input (VerifyForest).
func Verify(ref *Ref, res *Result) error {
	if res.Components != ref.Count || res.Checksum != ref.Checksum {
		return fmt.Errorf("graph: found %d components (checksum %x), reference has %d (%x)",
			res.Components, res.Checksum, ref.Count, ref.Checksum)
	}
	if res.Forest != nil {
		return VerifyForest(ref, res.Forest)
	}
	return nil
}

// VerifyForest checks that forest is a spanning forest of the input graph:
// every forest edge is within a reference component, no forest edge closes
// a cycle, and the forest merges the vertices into exactly the reference
// components (which, with |forest| = |V| − Count implied by the union
// count, makes it spanning); and every forest edge is an edge of the input,
// not a self-loop, either way round.
func VerifyForest(ref *Ref, forest []Edge) error {
	verts := make([]uint64, 0, len(ref.Labels))
	for v := range ref.Labels {
		verts = append(verts, v)
	}
	u := newUnionFind(verts)
	for _, e := range forest {
		lu, ok1 := ref.Labels[e.U]
		lv, ok2 := ref.Labels[e.V]
		if !ok1 || !ok2 {
			return fmt.Errorf("graph: forest edge (%d,%d) references an unknown vertex", e.U, e.V)
		}
		if lu != lv {
			return fmt.Errorf("graph: forest edge (%d,%d) crosses components %d and %d", e.U, e.V, lu, lv)
		}
		if !u.union(u.index(e.U), u.index(e.V)) {
			return fmt.Errorf("graph: forest edge (%d,%d) closes a cycle", e.U, e.V)
		}
	}
	want := int64(len(ref.Labels)) - ref.Count
	if got := int64(len(forest)); got != want {
		return fmt.Errorf("graph: forest has %d edges, want |V|-components = %d", got, want)
	}
	// In O(|forest|) memory: an open-addressing table of the forest edges,
	// each low end first and at most half full, which one scan of the input
	// marks; a bitmap of 16 bits per forest edge, set at the hash of each,
	// turns most input edges away before they reach the table.
	logSlots := bits.Len(uint(2 * len(forest)))
	slot := make([]int32, 1<<logSlots)
	filter := make([]uint64, len(slot)/8+1)
	mask := uint64(len(slot) - 1)
	hash := func(e Edge) uint64 { return hashing.Mix64(e.U ^ bits.RotateLeft64(e.V, 32)) }
	// The filter takes the hash's top bits, the table its bottom ones.
	at := func(x uint64) (*uint64, uint64) { x >>= 61 - logSlots; return &filter[x>>6], 1 << (x & 63) }
	for k, e := range forest {
		x := hash(lowFirst(e))
		w, b := at(x)
		*w |= b
		h := x & mask
		for slot[h] != 0 {
			h = (h + 1) & mask
		}
		slot[h] = int32(k + 1)
	}
	found := make([]bool, len(forest))
	for _, frag := range ref.edges {
		for _, e := range frag {
			e = lowFirst(e)
			x := hash(e)
			if w, b := at(x); *w&b == 0 || e.U == e.V {
				continue
			}
			for h := x & mask; slot[h] != 0; h = (h + 1) & mask {
				if k := slot[h] - 1; lowFirst(forest[k]) == e {
					found[k] = true
					break
				}
			}
		}
	}
	if k := slices.Index(found, false); k >= 0 {
		return fmt.Errorf("graph: forest edge (%d,%d) is not an input edge", forest[k].U, forest[k].V)
	}
	return nil
}

// lowFirst orders an undirected edge's endpoints ascending.
func lowFirst(e Edge) Edge {
	if e.V < e.U {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// ComponentSpread reports, for every connected component, the compute
// nodes holding at least one of its input edges (each endpoint counts as
// presence). The node lists feed lowerbound.Spanning, which charges a
// component's Steiner tree over its nodes.
func ComponentSpread(t *topology.Tree, edges Placement) [][]topology.NodeID {
	ref := Reference(edges)
	nodes := t.ComputeNodes()
	present := make(map[uint64]map[topology.NodeID]bool)
	for i, frag := range edges {
		v := nodes[i]
		for _, e := range frag {
			for _, root := range [2]uint64{ref.Labels[e.U], ref.Labels[e.V]} {
				set := present[root]
				if set == nil {
					set = make(map[topology.NodeID]bool)
					present[root] = set
				}
				set[v] = true
			}
		}
	}
	out := make([][]topology.NodeID, 0, len(present))
	for _, root := range slices.Sorted(maps.Keys(present)) {
		set := present[root]
		list := make([]topology.NodeID, 0, len(set))
		for v := range set {
			list = append(list, v)
		}
		slices.Sort(list)
		out = append(out, list)
	}
	return out
}
