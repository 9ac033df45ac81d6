package topology

// The cover oracle of MinCoverSumSq and the accessors below serve this
// package's tests only.

// IsCover reports whether set covers every compute node of d (every compute
// node has an ancestor-or-self in set).
func (d *Directed) IsCover(set []NodeID) bool {
	in := make(map[NodeID]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, c := range d.t.ComputeNodes() {
		covered := false
		for v := c; v != NoNode; v = d.parent[v] {
			if in[v] {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// IsMinimalCover reports whether set is a cover from which no element can
// be removed.
func (d *Directed) IsMinimalCover(set []NodeID) bool {
	if !d.IsCover(set) {
		return false
	}
	for i := range set {
		reduced := make([]NodeID, 0, len(set)-1)
		reduced = append(reduced, set[:i]...)
		reduced = append(reduced, set[i+1:]...)
		if d.IsCover(reduced) {
			return false
		}
	}
	return true
}

// EnumMinimalCovers enumerates every minimal cover of G† that covers all
// compute nodes (excluding covers containing the root when the root is a
// router, matching Theorem 4's U ≠ {r} requirement only in the sense that
// the root itself is never a member — it has no outgoing edge). Intended for
// exhaustive cross-checking on small trees; cost is exponential.
func (d *Directed) EnumMinimalCovers() [][]NodeID {
	var enum func(v NodeID) [][]NodeID
	subHasCompute := make(map[NodeID]bool)
	var mark func(v NodeID) bool
	mark = func(v NodeID) bool {
		h := d.t.IsCompute(v)
		for _, c := range d.children[v] {
			if mark(c) {
				h = true
			}
		}
		subHasCompute[v] = h
		return h
	}
	mark(d.root)
	enum = func(v NodeID) [][]NodeID {
		if !subHasCompute[v] {
			return [][]NodeID{nil}
		}
		var out [][]NodeID
		if v != d.root {
			out = append(out, []NodeID{v})
		}
		if !d.t.IsCompute(v) && len(d.children[v]) > 0 {
			combos := [][]NodeID{nil}
			for _, c := range d.children[v] {
				sub := enum(c)
				var next [][]NodeID
				for _, base := range combos {
					for _, s := range sub {
						merged := make([]NodeID, 0, len(base)+len(s))
						merged = append(merged, base...)
						merged = append(merged, s...)
						next = append(next, merged)
					}
				}
				combos = next
			}
			out = append(out, combos...)
		}
		return out
	}
	return enum(d.root)
}

// PathLen reports the number of edges on the unique path from u to v in
// O(1), using the LCA index.
func (t *Tree) PathLen(u, v NodeID) int {
	l := t.LCA(u, v)
	return int(t.depth[u] + t.depth[v] - 2*t.depth[l])
}

// ChildEnd reports the endpoint of e farther from the root. Removing e
// splits the tree into the subtree under ChildEnd(e) and the rest.
func (t *Tree) ChildEnd(e EdgeID) NodeID { return t.childEnd[e] }

// MustBuild is Build for static graphs; it panics on error.
func (b *GraphBuilder) MustBuild() *Graph { return must(b.Build()) }
