package graph

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"topompc/internal/hashing"
	"topompc/internal/topology"
)

// Ref is the centralized union-find reference answer a protocol run is
// verified against.
//
// It shares no code with the protocol, which sorts and renumbers vertex
// ids: an open-addressing table maps each id to the index of its first
// appearance in the input, and union-find runs over those indices, each
// root keeping the smallest id of its set, so one pass over the edges
// leaves every vertex pointing at its component's canonical label. The
// forest check and the component spread's holder lists resolve ids through
// the same table, and drop repeats with one stamp per component;
// ReferenceSpread reads the vertex holder lists off the indices its pass
// resolves.
type Ref struct {
	// Count is the number of connected components.
	Count int64
	// Checksum fingerprints the labeling order-independently (the
	// quantity Checksum computes over a labeling).
	Checksum uint64
	// ids lists the vertex ids in first-seen order; position = index.
	ids []uint64
	// slot is the id table, at most half full: index+1, or 0 for empty,
	// at the first free slot from the id's hash on.
	slot []int32
	// root is each vertex's component root, the index of the component's
	// smallest id; while Reference runs, the union-find parent.
	root []int32
	// edges is the input the reference was built from (not a copy), which
	// VerifyForest holds forest edges to and Spread reads the holders of.
	edges Placement
}

// find returns the root of x's set in parent, halving the path.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// union merges the sets of a and b in parent under the root with the
// smaller id; it reports false when they were one set already.
func (r *Ref) union(parent []int32, a, b int32) bool {
	ra, rb := find(parent, a), find(parent, b)
	if ra == rb {
		return false
	}
	if r.ids[rb] < r.ids[ra] {
		ra, rb = rb, ra
	}
	parent[rb] = ra
	return true
}

// probe returns the slot holding id and its index, or the empty slot where
// id would go and -1.
func (r *Ref) probe(id uint64) (uint64, int32) {
	mask := uint64(len(r.slot) - 1)
	h := hashing.Mix64(id) & mask
	for ; r.slot[h] != 0; h = (h + 1) & mask {
		if k := r.slot[h] - 1; r.ids[k] == id {
			return h, k
		}
	}
	return h, -1
}

// lookup returns the index of id, or -1 when id is no input vertex.
func (r *Ref) lookup(id uint64) int32 {
	_, k := r.probe(id)
	return k
}

// insert returns the index of id, giving it the next one if it is new.
func (r *Ref) insert(id uint64) int32 {
	h, k := r.probe(id)
	if k >= 0 {
		return k
	}
	k = int32(len(r.ids))
	r.ids = append(r.ids, id)
	r.root = append(r.root, k)
	r.slot[h] = k + 1
	if 2*len(r.ids) > len(r.slot) {
		r.grow()
	}
	return k
}

// grow doubles the table and places every index again.
func (r *Ref) grow() {
	r.slot = make([]int32, 2*len(r.slot))
	for k, id := range r.ids {
		h, _ := r.probe(id)
		r.slot[h] = int32(k + 1)
	}
}

// Reference computes components, canonical min-labels, and the labeling
// checksum centrally with union-find, in time linear in the input.
func Reference(edges Placement) *Ref {
	r, _ := reference(edges, false)
	return r
}

// reference is Reference's one pass over the edges; with keep it also
// returns both ends of every edge as indices, in input order.
func reference(edges Placement, keep bool) (*Ref, []int32) {
	r := &Ref{slot: make([]int32, 16), edges: edges}
	var ends []int32
	if keep {
		ends = make([]int32, 0, 2*edges.NumEdges())
	}
	for _, frag := range edges {
		for _, e := range frag {
			u, v := r.insert(e.U), r.insert(e.V)
			if u != v {
				r.union(r.root, u, v)
			}
			if keep {
				ends = append(ends, u, v)
			}
		}
	}
	for k := range r.root {
		l := find(r.root, int32(k))
		r.root[k] = l
		if l == int32(k) {
			r.Count++
		}
		r.Checksum += hashing.Mix64(r.ids[k] + hashing.Mix64(r.ids[l]))
	}
	return r, ends
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
	parent := make([]int32, len(ref.ids))
	for k := range parent {
		parent[k] = int32(k)
	}
	for _, e := range forest {
		u, v := ref.lookup(e.U), ref.lookup(e.V)
		if u < 0 || v < 0 {
			return fmt.Errorf("graph: forest edge (%d,%d) references an unknown vertex", e.U, e.V)
		}
		if lu, lv := ref.root[u], ref.root[v]; lu != lv {
			return fmt.Errorf("graph: forest edge (%d,%d) crosses components %d and %d", e.U, e.V, ref.ids[lu], ref.ids[lv])
		}
		if !ref.union(parent, u, v) {
			return fmt.Errorf("graph: forest edge (%d,%d) closes a cycle", e.U, e.V)
		}
	}
	want := int64(len(ref.ids)) - ref.Count
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

// Spread reports, for every connected component in ascending label order,
// the compute nodes holding at least one of its input edges, ascending
// (each endpoint counts as presence, and both ends of an edge are in one
// component). The node lists feed lowerbound.Spanning, which charges a
// component's Steiner tree over its nodes.
//
// Holders are visited in compute-node order, which is ascending id order,
// and a per-component stamp of the last holder listed keeps each list
// free of repeats without a set per component.
func (r *Ref) Spread(t *topology.Tree) [][]topology.NodeID {
	// ord numbers the components by label: roots[c] is the root of the
	// c-th smallest label, and ord[root] = c.
	roots := make([]int32, 0, r.Count)
	for k, l := range r.root {
		if l == int32(k) {
			roots = append(roots, l)
		}
	}
	slices.SortFunc(roots, func(a, b int32) int { return cmp.Compare(r.ids[a], r.ids[b]) })
	ord := make([]int32, len(r.ids))
	for c, l := range roots {
		ord[l] = int32(c)
	}
	nodes := t.ComputeNodes()
	out := make([][]topology.NodeID, len(roots))
	stamp := make([]int32, len(roots))
	for i, frag := range r.edges {
		for _, e := range frag {
			if c := ord[r.root[r.lookup(e.U)]]; stamp[c] != int32(i+1) {
				stamp[c] = int32(i + 1)
				out[c] = append(out[c], nodes[i])
			}
		}
	}
	return out
}

// ReferenceSpread is Reference(edges) together with the holder lists of
// the connectivity bound: for every vertex in first-seen order, the compute
// nodes holding at least one of its incident input edges, ascending. The
// lists feed lowerbound.Spanning, which charges each vertex's Steiner tree
// over its nodes and so dominates Spread's component term on every edge.
//
// The reference's pass keeps both ends of every edge as the indices it
// resolved them to, so no id is looked up twice. Holder by holder, the
// indices are compacted in place to the vertices the holder names, each
// once (a stamp per vertex of the last holder that named it); the lists
// are then laid out back to back in one array, so a call allocates a fixed
// handful of arrays however many vertices there are.
func ReferenceSpread(t *topology.Tree, edges Placement) (*Ref, [][]topology.NodeID) {
	r, named := reference(edges, true)
	nodes := t.ComputeNodes()
	stamp := make([]int32, len(r.ids))
	off := make([]int32, len(r.ids)+1) // holders per vertex, then list offsets
	ends := make([]int, len(edges))    // where each holder's run of named ends
	n, lo := 0, 0
	for i, frag := range edges {
		for _, k := range named[lo : lo+2*len(frag)] {
			if stamp[k] != int32(i+1) {
				stamp[k] = int32(i + 1)
				off[k+1]++
				named[n] = k
				n++
			}
		}
		lo += 2 * len(frag)
		ends[i] = n
	}
	for k := range r.ids {
		off[k+1] += off[k]
	}
	flat := make([]topology.NodeID, n)
	next := stamp // the stamps are done with: each list's fill position
	copy(next, off)
	lo = 0
	for i, end := range ends {
		for _, k := range named[lo:end] {
			flat[next[k]] = nodes[i]
			next[k]++
		}
		lo = end
	}
	out := make([][]topology.NodeID, len(r.ids))
	for k := range out {
		out[k] = flat[off[k]:off[k+1]:off[k+1]]
	}
	return r, out
}

// ComponentSpread is Reference(edges).Spread(t): per connected component,
// in ascending label order, the compute nodes holding its input edges, each
// edge's component found through the reference's id table and each list
// kept free of repeats by one stamp per component. A caller that verifies
// too holds the Ref already and calls its Spread, so one union-find serves
// both.
func ComponentSpread(t *topology.Tree, edges Placement) [][]topology.NodeID {
	return Reference(edges).Spread(t)
}
