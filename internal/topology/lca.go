package topology

import (
	"math/bits"
	"slices"
)

// Lowest-common-ancestor support: a sparse table for range-minimum queries
// over the n preorder positions makes LCA (and therefore PathLen) O(1)
// after O(n log n) preprocessing at Build time. Entry i of the bottom level
// is the preorder position of the parent of the node at position i. Every
// node visited after u and up to v (tin[u] < tin[v]) lies under their
// lowest common ancestor, and one of them — v's ancestor just below it, or
// v itself — is its child, so the minimum over (tin[u], tin[v]] is the
// ancestor's own position: no tour, no first-visit array, no depth compare.
//
// The same structure powers PathAccumulator, which turns a batch of M
// unicasts and multicasts into per-edge traffic counts in O(n + M) total
// (plus an O(k log k) sort per k-terminal multicast) instead of one
// O(depth) walk per message: each unicast contributes +c at both endpoints
// and −2c at their LCA, each multicast charges the virtual-tree paths of
// its terminal set, and a single bottom-up subtree-sum sweep converts the
// node deltas into edge traffic. The deltas are kept by preorder position,
// the index the table answers in, so the sweep reads them in storage order.

// lcaIndex is the precomputed sparse table: table[k][i] is the smallest
// parent position among positions i .. i+2^k-1.
type lcaIndex struct {
	table [][]int32
}

// buildLCA constructs the sparse table; called by finalize.
func (t *Tree) buildLCA() {
	n := t.NumNodes()
	up := make([]int32, n) // the root's entry is never part of a query
	for i := 1; i < n; i++ {
		up[i] = t.tin[t.parent[t.preorder[i]]]
	}
	ix := &lcaIndex{table: [][]int32{up}}
	for width := 2; width < n; width *= 2 {
		prev := ix.table[len(ix.table)-1]
		row := make([]int32, n-width+1) // a query spans at most n-1 positions
		for i := range row {
			row[i] = min(prev[i], prev[i+width/2])
		}
		ix.table = append(ix.table, row)
	}
	t.lca = ix
}

// at reports the preorder position of the lowest common ancestor of the
// nodes at preorder positions a and b.
func (ix *lcaIndex) at(a, b int32) int32 {
	if a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	k := bits.Len32(uint32(b-a)) - 1
	row := ix.table[k]
	return min(row[a+1], row[b-int32(1)<<k+1])
}

// LCA reports the lowest common ancestor of u and v in the rooted
// orientation, in O(1).
func (t *Tree) LCA(u, v NodeID) NodeID {
	return t.preorder[t.lca.at(t.tin[u], t.tin[v])]
}

// PathAccumulator turns a batch of routed transfers into per-edge traffic
// counts. Add* calls record node-potential deltas in O(1) per unicast (and
// O(k log k) per k-terminal multicast); FlushInto performs one bottom-up
// subtree-sum sweep over the tree and adds the resulting counts to a
// per-edge traffic slice. Accumulators are not safe for concurrent use;
// shard the batch across several accumulators and MergeFrom them instead.
type PathAccumulator struct {
	t     *Tree
	diff  []int64 // pending deltas by preorder position
	terms []int32 // multicast scratch: terminal positions, ascending
	stack []int32 // multicast scratch: rightmost virtual-tree chain
}

// NewPathAccumulator returns an accumulator for trees structurally
// identical to t.
func NewPathAccumulator(t *Tree) *PathAccumulator {
	return &PathAccumulator{t: t, diff: make([]int64, t.NumNodes())}
}

// AddPath charges c to every edge on the unique u–v path.
func (a *PathAccumulator) AddPath(u, v NodeID, c int64) {
	p, q := a.t.tin[u], a.t.tin[v]
	a.diff[p] += c
	a.diff[q] += c
	a.diff[a.t.lca.at(p, q)] -= 2 * c
}

// addUp charges c to every edge on the path from position p up to its
// ancestor at position anc.
func (a *PathAccumulator) addUp(p, anc int32, c int64) {
	a.diff[p] += c
	a.diff[anc] -= c
}

// AddSteiner charges c to every edge of the Steiner tree (minimal spanning
// subtree) of the given terminals — the edge set a multicast crosses, each
// edge exactly once. terminals may contain duplicates; the slice is not
// modified.
func (a *PathAccumulator) AddSteiner(terminals []NodeID, c int64) {
	a.terms = a.terms[:0]
	for _, v := range terminals {
		a.terms = append(a.terms, a.t.tin[v])
	}
	slices.Sort(a.terms)
	terms := slices.Compact(a.terms)
	if len(terms) < 2 {
		return
	}

	// Build the virtual (auxiliary) tree over the terminals with the classic
	// stack sweep: the stack holds the rightmost root-to-node chain; each
	// chain edge (descendant, ancestor) covers one contiguous tree path,
	// charged via addUp. Ancestors of one node compare by position as they
	// do by depth.
	ix := a.t.lca
	st := append(a.stack[:0], terms[0])
	for _, x := range terms[1:] {
		l := ix.at(st[len(st)-1], x)
		for len(st) >= 2 && st[len(st)-2] >= l {
			a.addUp(st[len(st)-1], st[len(st)-2], c)
			st = st[:len(st)-1]
		}
		if st[len(st)-1] > l {
			a.addUp(st[len(st)-1], l, c)
			st[len(st)-1] = l
		}
		st = append(st, x)
	}
	for len(st) >= 2 {
		a.addUp(st[len(st)-1], st[len(st)-2], c)
		st = st[:len(st)-1]
	}
	a.stack = st[:0]
}

// MergeFrom adds b's pending deltas into a and resets b. Both accumulators
// must target the same tree.
func (a *PathAccumulator) MergeFrom(b *PathAccumulator) {
	for i, d := range b.diff {
		if d != 0 {
			a.diff[i] += d
			b.diff[i] = 0
		}
	}
}

// Reset drops the pending deltas.
func (a *PathAccumulator) Reset() { clear(a.diff) }

// FlushInto converts the pending deltas into per-edge counts with one
// reverse-preorder subtree-sum sweep, adds them to traffic (indexed by
// EdgeID, length NumEdges), and resets the accumulator. Every edge gets its
// whole count in one addition, so the sweep also reports the batch's cost —
// the largest count over bandwidth — and the edge that attains it, the one
// with the lowest id among equals and NoEdge when nothing crossed a link.
func (a *PathAccumulator) FlushInto(traffic []int64) (cost float64, bottleneck EdgeID) {
	t := a.t
	up := t.lca.table[0]
	bottleneck = NoEdge
	for i := len(a.diff) - 1; i >= 1; i-- {
		s := a.diff[i]
		if s == 0 {
			continue
		}
		e := t.parentEdge[t.preorder[i]]
		traffic[e] += s
		a.diff[up[i]] += s
		a.diff[i] = 0
		if c := float64(s) / t.bw[e]; c > cost || c == cost && e < bottleneck {
			cost, bottleneck = c, e
		}
	}
	a.diff[0] = 0
	return cost, bottleneck
}

// sortByTin orders nodes by preorder position, as AddSteiner orders its
// terminals: it sorts the positions and maps them back through the
// preorder.
func sortByTin(t *Tree, ns []NodeID) {
	for i, v := range ns {
		ns[i] = NodeID(t.tin[v])
	}
	slices.Sort(ns)
	for i, p := range ns {
		ns[i] = t.preorder[p]
	}
}
