package topology

import "math/bits"

// Lowest-common-ancestor support: an Euler tour of the rooted tree plus a
// sparse table for range-minimum queries over tour depths makes LCA (and
// therefore PathLen) O(1) after O(n log n) preprocessing at Build time.
//
// The same structure powers PathAccumulator, which turns a batch of M
// unicasts and multicasts into per-edge traffic counts in O(n + M) total
// (plus an O(k log k) sort per k-terminal multicast) instead of one
// O(depth) walk per message: each unicast contributes +c at both endpoints
// and −2c at their LCA, each multicast charges the virtual-tree paths of
// its terminal set, and a single bottom-up subtree-sum sweep converts the
// node deltas into edge traffic.

// lcaIndex is the precomputed Euler-tour sparse table.
type lcaIndex struct {
	euler []NodeID // node visited at each tour step (2n-1 entries)
	first []int32  // first tour index of each node
	table [][]int32
}

// buildLCA constructs the Euler tour and sparse table; called by finalize.
func (t *Tree) buildLCA() {
	n := t.NumNodes()
	ix := &lcaIndex{
		euler: make([]NodeID, 0, 2*n-1),
		first: make([]int32, n),
	}
	for v := range ix.first {
		ix.first[v] = -1
	}

	// Iterative Euler tour following adjacency (insertion) order, matching
	// the DFS of finalize: a node is appended on first entry and again after
	// each child returns.
	type frame struct {
		v    NodeID
		next int
	}
	visit := func(v NodeID) {
		if ix.first[v] < 0 {
			ix.first[v] = int32(len(ix.euler))
		}
		ix.euler = append(ix.euler, v)
	}
	stack := []frame{{t.root, 0}}
	visit(t.root)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(t.adj[f.v]) {
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				visit(stack[len(stack)-1].v)
			}
			continue
		}
		h := t.adj[f.v][f.next]
		f.next++
		if h.To == t.parent[f.v] {
			continue
		}
		visit(h.To)
		stack = append(stack, frame{h.To, 0})
	}

	// Sparse table over tour positions; comparisons use node depth, so
	// table[k][i] is the position of the shallowest node in
	// euler[i : i+2^k].
	m := len(ix.euler)
	levels := 1
	if m > 1 {
		levels = bits.Len(uint(m)) // floor(log2(m)) + 1
	}
	ix.table = make([][]int32, levels)
	ix.table[0] = make([]int32, m)
	for i := range ix.table[0] {
		ix.table[0][i] = int32(i)
	}
	for k := 1; k < levels; k++ {
		width := 1 << k
		if m-width+1 <= 0 {
			ix.table = ix.table[:k]
			break
		}
		ix.table[k] = make([]int32, m-width+1)
		prev := ix.table[k-1]
		for i := range ix.table[k] {
			a, b := prev[i], prev[i+width/2]
			if t.depth[ix.euler[a]] <= t.depth[ix.euler[b]] {
				ix.table[k][i] = a
			} else {
				ix.table[k][i] = b
			}
		}
	}
	t.lca = ix
}

// LCA reports the lowest common ancestor of u and v in the rooted
// orientation, in O(1).
func (t *Tree) LCA(u, v NodeID) NodeID {
	ix := t.lca
	a, b := ix.first[u], ix.first[v]
	if a > b {
		a, b = b, a
	}
	k := bits.Len(uint(b-a+1)) - 1
	x, y := ix.table[k][a], ix.table[k][b-int32(1<<k)+1]
	if t.depth[ix.euler[x]] <= t.depth[ix.euler[y]] {
		return ix.euler[x]
	}
	return ix.euler[y]
}

// PathAccumulator turns a batch of routed transfers into per-edge traffic
// counts. Add* calls record node-potential deltas in O(1) per unicast (and
// O(k log k) per k-terminal multicast); FlushInto performs one bottom-up
// subtree-sum sweep over the tree and adds the resulting counts to a
// per-edge traffic slice. Accumulators are not safe for concurrent use;
// shard the batch across several accumulators and MergeFrom them instead.
type PathAccumulator struct {
	t     *Tree
	diff  []int64
	terms []NodeID // multicast scratch: terminals sorted by tour entry
	stack []NodeID // multicast scratch: rightmost virtual-tree chain
}

// NewPathAccumulator returns an accumulator for trees structurally
// identical to t.
func NewPathAccumulator(t *Tree) *PathAccumulator {
	return &PathAccumulator{t: t, diff: make([]int64, t.NumNodes())}
}

// AddPath charges c to every edge on the unique u–v path.
func (a *PathAccumulator) AddPath(u, v NodeID, c int64) {
	if u == v || c == 0 {
		return
	}
	a.diff[u] += c
	a.diff[v] += c
	a.diff[a.t.LCA(u, v)] -= 2 * c
}

// addUp charges c to every edge on the path from v up to its ancestor anc.
func (a *PathAccumulator) addUp(v, anc NodeID, c int64) {
	if v == anc {
		return
	}
	a.diff[v] += c
	a.diff[anc] -= c
}

// AddSteiner charges c to every edge of the Steiner tree (minimal spanning
// subtree) of the given terminals — the edge set a multicast crosses, each
// edge exactly once. terminals may contain duplicates; the slice is not
// modified.
func (a *PathAccumulator) AddSteiner(terminals []NodeID, c int64) {
	if len(terminals) < 2 || c == 0 {
		return
	}
	t := a.t
	a.terms = append(a.terms[:0], terminals...)
	sortByTin(t, a.terms)
	terms := dedupeNodes(a.terms)
	if len(terms) < 2 {
		return
	}

	// Build the virtual (auxiliary) tree over the terminals with the classic
	// stack sweep: the stack holds the rightmost root-to-node chain; each
	// chain edge (descendant, ancestor) covers one contiguous tree path,
	// charged via addUp.
	st := a.stack[:0]
	st = append(st, terms[0])
	for _, x := range terms[1:] {
		l := t.LCA(st[len(st)-1], x)
		for len(st) >= 2 && t.depth[st[len(st)-2]] >= t.depth[l] {
			a.addUp(st[len(st)-1], st[len(st)-2], c)
			st = st[:len(st)-1]
		}
		if t.depth[st[len(st)-1]] > t.depth[l] {
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
	for v, d := range b.diff {
		if d != 0 {
			a.diff[v] += d
			b.diff[v] = 0
		}
	}
}

// Reset drops the pending deltas.
func (a *PathAccumulator) Reset() { clear(a.diff) }

// FlushInto converts the pending deltas into per-edge counts with one
// reverse-preorder subtree-sum sweep, adds them to traffic (indexed by
// EdgeID, length NumEdges), and resets the accumulator.
func (a *PathAccumulator) FlushInto(traffic []int64) {
	t := a.t
	pre := t.preorder
	for i := len(pre) - 1; i >= 1; i-- {
		v := pre[i]
		s := a.diff[v]
		if s != 0 {
			traffic[t.parentEdge[v]] += s
			a.diff[t.parent[v]] += s
			a.diff[v] = 0
		}
	}
	a.diff[t.root] = 0
}

// sortByTin orders nodes by Euler entry time (tour discovery order).
func sortByTin(t *Tree, ns []NodeID) {
	// Insertion sort: multicast terminal sets are typically small; fall back
	// to a simple in-place heapsort for large sets to keep O(k log k).
	if len(ns) < 32 {
		for i := 1; i < len(ns); i++ {
			for j := i; j > 0 && t.tin[ns[j]] < t.tin[ns[j-1]]; j-- {
				ns[j], ns[j-1] = ns[j-1], ns[j]
			}
		}
		return
	}
	heapSortByTin(t, ns)
}

func heapSortByTin(t *Tree, ns []NodeID) {
	n := len(ns)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownTin(t, ns, i, n)
	}
	for end := n - 1; end > 0; end-- {
		ns[0], ns[end] = ns[end], ns[0]
		siftDownTin(t, ns, 0, end)
	}
}

func siftDownTin(t *Tree, ns []NodeID, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && t.tin[ns[c+1]] > t.tin[ns[c]] {
			c++
		}
		if t.tin[ns[i]] >= t.tin[ns[c]] {
			return
		}
		ns[i], ns[c] = ns[c], ns[i]
		i = c
	}
}

func dedupeNodes(ns []NodeID) []NodeID {
	out := ns[:0]
	for i, v := range ns {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
