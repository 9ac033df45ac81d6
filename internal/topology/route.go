package topology

// Path appends the edges of the unique path from u to v to dst and returns
// the extended slice. The edges appear in order from u toward v. Passing the
// same node twice yields an empty path.
func (t *Tree) Path(dst []EdgeID, u, v NodeID) []EdgeID {
	if u == v {
		return dst
	}
	// Climb both endpoints to their LCA. Edges from u's side are appended in
	// walk order; edges from v's side are collected and appended reversed so
	// that the result reads u -> v.
	var fromV []EdgeID
	for u != v {
		if t.depth[u] >= t.depth[v] {
			dst = append(dst, t.parentEdge[u])
			u = t.parent[u]
		} else {
			fromV = append(fromV, t.parentEdge[v])
			v = t.parent[v]
		}
	}
	for i := len(fromV) - 1; i >= 0; i-- {
		dst = append(dst, fromV[i])
	}
	return dst
}

// SteinerScratch is reusable state for Steiner computations, avoiding
// per-call allocation in protocol inner loops. The zero value is invalid;
// use NewSteinerScratch.
type SteinerScratch struct {
	stamp []int32
	cur   int32
}

// NewSteinerScratch returns scratch space sized for t.
func NewSteinerScratch(t *Tree) *SteinerScratch {
	return &SteinerScratch{stamp: make([]int32, t.NumEdges())}
}

// Steiner appends to dst the edge set of the Steiner tree spanning src and
// all dsts (the union of the unique paths src->d), with each edge appearing
// exactly once, and returns the extended slice. This is the edge set charged
// by a multicast in the cost model: a router replicates an element to
// multiple output links, so the element crosses each link of the union at
// most once.
func (t *Tree) Steiner(dst []EdgeID, sc *SteinerScratch, src NodeID, dsts []NodeID) []EdgeID {
	sc.cur++
	if sc.cur == 0 { // wrapped; reset
		for i := range sc.stamp {
			sc.stamp[i] = -1
		}
		sc.cur = 1
	}
	for _, d := range dsts {
		u, v := src, d
		for u != v {
			var e EdgeID
			if t.depth[u] >= t.depth[v] {
				e = t.parentEdge[u]
				u = t.parent[u]
			} else {
				e = t.parentEdge[v]
				v = t.parent[v]
			}
			if sc.stamp[e] != sc.cur {
				sc.stamp[e] = sc.cur
				dst = append(dst, e)
			}
		}
	}
	return dst
}
