package place

import (
	"math"

	"topompc/internal/topology"
)

// Capacities computes a per-compute-node weight (in ComputeNodes order)
// proportional to the node's bandwidth capacity into the rest of the tree.
//
// The weight is built in two sweeps over the tree re-rooted at its
// centroid (the rooted orientation of a Tree is an arbitrary device, and
// anchoring capacities to it would privilege root-adjacent nodes):
//
//  1. Bottom-up, every subtree gets a capacity
//     cap(T_v) = min(w_uplink(v), own(v) + Σ_children cap),
//     where own(v) is a compute node's local absorption term (its best
//     adjacent link) and the min with the uplink bandwidth models the
//     subtree's bottleneck: a rack behind a thin uplink cannot usefully
//     absorb more shuffle traffic than the uplink carries, no matter how
//     many machines it contains.
//  2. Top-down, the centroid's capacity is distributed to the leaves
//     proportionally to the subtree capacities.
//
// Weighting hashing, cell apportioning, or splitter selection by these
// capacities concentrates work inside well-connected subtrees: nodes
// behind weak uplinks receive little, so a weak edge carries each remote
// element at most once instead of once per direction or per copy. This is
// the share-dimension analogue of the paper's weighted-hashing principle.
// Infinite-bandwidth links are clamped to a large finite stand-in so
// proportions stay well-defined.
//
// The weights are memoized on the Tree (trees are immutable), so fleets
// of short protocol runs on one cluster pay the two sweeps once. The
// returned slice is shared — callers must not modify it.
func Capacities(t *topology.Tree) []float64 {
	return t.Memo(capacitiesMemoKey{}, func() any { return capacities(t) }).([]float64)
}

// capacities computes the capacity weights uncached; Capacities memoizes
// it per tree.
func capacities(t *topology.Tree) []float64 {
	n := t.NumNodes()
	// Clamp +Inf links: anything beyond every finite link's total acts as
	// "not a bottleneck".
	maxW := 0.0
	for e := 0; e < t.NumEdges(); e++ {
		if w := t.Bandwidth(topology.EdgeID(e)); !math.IsInf(w, 1) && w > maxW {
			maxW = w
		}
	}
	if maxW == 0 {
		maxW = 1
	}
	clamp := maxW * float64(n)
	bw := func(e topology.EdgeID) float64 {
		if w := t.Bandwidth(e); w < clamp {
			return w
		}
		return clamp
	}

	// own(v): a compute node's local absorption term — its best adjacent
	// link (for a leaf, its only link).
	own := make([]float64, n)
	for _, v := range t.ComputeNodes() {
		best := 0.0
		for _, h := range t.Neighbors(v) {
			if w := bw(h.Edge); w > best {
				best = w
			}
		}
		if best == 0 {
			best = 1 // single-node tree
		}
		own[v] = best
	}

	// Re-root at the centroid and compute a preorder of that orientation.
	root := centroid(t)
	parent := make([]topology.NodeID, n)
	parentEdge := make([]topology.EdgeID, n)
	order := make([]topology.NodeID, 0, n)
	for v := range parent {
		parent[v] = topology.NoNode
		parentEdge[v] = topology.NoEdge
	}
	stack := []topology.NodeID{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for _, h := range t.Neighbors(v) {
			if h.To != parent[v] && parentEdge[v] != h.Edge {
				parent[h.To] = v
				parentEdge[h.To] = h.Edge
				stack = append(stack, h.To)
			}
		}
	}

	// Bottom-up subtree capacities (children precede parents in reverse
	// order).
	sub := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		c := sub[v] + own[v] // sub[v] holds Σ children caps so far
		if parent[v] != topology.NoNode {
			if w := bw(parentEdge[v]); c > w {
				c = w
			}
			sub[parent[v]] += c
		}
		sub[v] = c
	}

	// Top-down flow split, proportional to subtree capacities.
	flow := make([]float64, n)
	flow[root] = sub[root]
	weights := make([]float64, t.NumCompute())
	for _, v := range order {
		f := flow[v]
		if f <= 0 {
			continue
		}
		total := own[v]
		for _, h := range t.Neighbors(v) {
			if h.To != parent[v] {
				total += sub[h.To]
			}
		}
		if total <= 0 {
			continue
		}
		if t.IsCompute(v) {
			weights[t.ComputeIndex(v)] += f * own[v] / total
		}
		for _, h := range t.Neighbors(v) {
			if h.To != parent[v] {
				flow[h.To] = f * sub[h.To] / total
			}
		}
	}

	// Degenerate trees (all-zero flow) fall back to uniform.
	return FallbackUniform(weights)
}

// centroid returns the tree centroid: the node minimizing the maximum
// component size after its removal (ties broken by smaller NodeID). For a
// path it is the middle; rooting the capacity sweeps there keeps the
// weights free of the arbitrary Tree root position.
func centroid(t *topology.Tree) topology.NodeID {
	n := t.NumNodes()
	size := make([]int, n)
	pre := t.Preorder()
	for i := len(pre) - 1; i >= 0; i-- {
		v := pre[i]
		size[v]++
		if par, _ := t.Parent(v); par != topology.NoNode {
			size[par] += size[v]
		}
	}
	best := pre[0]
	bestMax := n
	for _, v := range pre {
		worst := n - size[v] // the component through the parent
		for _, h := range t.Neighbors(v) {
			if par, _ := t.Parent(v); h.To != par {
				if size[h.To] > worst {
					worst = size[h.To]
				}
			}
		}
		if worst < bestMax || (worst == bestMax && v < best) {
			bestMax = worst
			best = v
		}
	}
	return best
}
