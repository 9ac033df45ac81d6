// Package topology models the symmetric tree networks of the topology-aware
// massively parallel computation model (Blanas, Koutris, Sidiropoulos, CIDR
// 2020; Hu, Koutris, Blanas, PODS 2021).
//
// A network is a connected undirected tree G = (V, E). Every edge carries a
// bandwidth w_e > 0 (possibly +Inf) and represents a full-duplex symmetric
// link: the cost of moving x elements across e in a round is x / w_e in each
// direction independently. A distinguished subset of the nodes are compute
// nodes; they are the only nodes that store data and perform computation,
// while the remaining nodes only route.
//
// The package provides:
//
//   - construction (Builder) and common generators (Star, TwoTier, FatTree,
//     Caterpillar, Random, plus the exact shapes of Figure 1 of the paper);
//   - the two w.l.o.g. normalizations of §2.1 (push compute nodes to leaves,
//     contract degree-2 routers);
//   - per-edge cuts (V−e, V+e) with load aggregation, the basis of every
//     lower bound in the paper;
//   - the directed tree G† of §4.1 together with its minimal covers and the
//     minimum-Σw² cover DP used by both Theorem 4 and Algorithm 5;
//   - left-to-right valid orderings of compute nodes (§5);
//   - JSON topology specs and ASCII rendering.
//
// Trees are immutable after Build; all derived structures are precomputed so
// that queries used in protocol inner loops (paths, cuts, subtree tests) are
// allocation-free.
package topology

import (
	"fmt"
	"math"
	"sync"
)

// NodeID identifies a node within a Tree. IDs are dense, starting at 0, in
// the order nodes were added to the Builder.
type NodeID int32

// EdgeID identifies an undirected edge within a Tree. IDs are dense,
// starting at 0, in the order edges were added to the Builder.
type EdgeID int32

// NoNode and NoEdge are sentinel identifiers.
const (
	NoNode NodeID = -1
	NoEdge EdgeID = -1
)

// Half is one directed half of an undirected edge: the neighbor it leads to
// and the undirected edge it belongs to.
type Half struct {
	To   NodeID
	Edge EdgeID
}

// Tree is an immutable symmetric tree network.
//
// The tree is rooted (at an arbitrary router when one exists) purely as an
// internal device for path and cut computations; the root has no semantic
// meaning in the model.
type Tree struct {
	names   []string
	compute []bool
	adj     [][]Half // insertion-ordered adjacency; defines left-to-right order

	endA, endB []NodeID  // endpoints per edge
	bw         []float64 // bandwidth per edge

	root       NodeID
	parent     []NodeID // parent in the rooted orientation; NoNode at root
	parentEdge []EdgeID // edge to parent; NoEdge at root
	depth      []int32
	childEnd   []NodeID // per edge: the endpoint farther from the root
	preorder   []NodeID // DFS preorder following adjacency order
	tin, tout  []int32  // Euler intervals for subtree tests
	lca        *lcaIndex

	computeList  []NodeID
	computeIndex []int32 // NodeID -> position in computeList, -1 for routers

	memoMu sync.Mutex  // guards memo
	memo   map[any]any // lazily-initialized derived-structure cache (Memo)
}

// NumNodes reports the number of nodes.
func (t *Tree) NumNodes() int { return len(t.names) }

// NumEdges reports the number of undirected edges (always NumNodes-1).
func (t *Tree) NumEdges() int { return len(t.bw) }

// NumCompute reports the number of compute nodes.
func (t *Tree) NumCompute() int { return len(t.computeList) }

// Name reports the node's name.
func (t *Tree) Name(v NodeID) string { return t.names[v] }

// IsCompute reports whether v is a compute node.
func (t *Tree) IsCompute(v NodeID) bool { return t.compute[v] }

// Bandwidth reports the bandwidth of edge e.
func (t *Tree) Bandwidth(e EdgeID) float64 { return t.bw[e] }

// Endpoints reports the two endpoints of edge e in insertion order.
func (t *Tree) Endpoints(e EdgeID) (NodeID, NodeID) { return t.endA[e], t.endB[e] }

// Neighbors reports the adjacency list of v in insertion order. The returned
// slice is shared with the Tree and must not be modified.
func (t *Tree) Neighbors(v NodeID) []Half { return t.adj[v] }

// Degree reports the degree of v.
func (t *Tree) Degree(v NodeID) int { return len(t.adj[v]) }

// ComputeNodes reports all compute nodes in insertion order. The returned
// slice is shared with the Tree and must not be modified.
func (t *Tree) ComputeNodes() []NodeID { return t.computeList }

// ComputeIndex reports v's position in ComputeNodes order, -1 when v is a
// router.
func (t *Tree) ComputeIndex(v NodeID) int { return int(t.computeIndex[v]) }

// Root reports the internal root used for path and cut computations.
func (t *Tree) Root() NodeID { return t.root }

// IsStar reports whether t is a star: the root is its one router, and
// every compute node is a leaf attached to it.
func (t *Tree) IsStar() bool {
	if t.compute[t.root] || t.NumNodes() != t.NumCompute()+1 {
		return false
	}
	for _, v := range t.computeList {
		if t.Degree(v) != 1 {
			return false
		}
	}
	return true
}

// Parent reports the parent of v in the rooted orientation and the edge
// leading to it; the root reports (NoNode, NoEdge).
func (t *Tree) Parent(v NodeID) (NodeID, EdgeID) { return t.parent[v], t.parentEdge[v] }

// Depth reports the depth of v (root has depth 0).
func (t *Tree) Depth(v NodeID) int { return int(t.depth[v]) }

// ChildEnd reports the endpoint of e farther from the root. Removing e
// splits the tree into the subtree under ChildEnd(e) and the rest.
func (t *Tree) ChildEnd(e EdgeID) NodeID { return t.childEnd[e] }

// OnChildSide reports whether v lies in the subtree under ChildEnd(e), i.e.
// on the child side of the cut induced by e.
func (t *Tree) OnChildSide(e EdgeID, v NodeID) bool {
	c := t.childEnd[e]
	return t.tin[c] <= t.tin[v] && t.tin[v] < t.tout[c]
}

// Preorder reports all nodes in DFS preorder from the internal root,
// visiting children in adjacency insertion order. The returned slice is
// shared with the Tree and must not be modified.
func (t *Tree) Preorder() []NodeID { return t.preorder }

// Validate checks internal invariants; it is intended for tests and for
// trees deserialized from external specs.
func (t *Tree) Validate() error {
	n := t.NumNodes()
	if n == 0 {
		return fmt.Errorf("topology: empty tree")
	}
	if t.NumEdges() != n-1 {
		return fmt.Errorf("topology: %d nodes but %d edges; want %d", n, t.NumEdges(), n-1)
	}
	if len(t.computeList) == 0 {
		return fmt.Errorf("topology: no compute nodes")
	}
	for e := 0; e < t.NumEdges(); e++ {
		if w := t.bw[e]; !(w > 0) || math.IsNaN(w) {
			return fmt.Errorf("topology: edge %d has invalid bandwidth %v", e, w)
		}
	}
	seen := 0
	for _, v := range t.preorder {
		_ = v
		seen++
	}
	if seen != n {
		return fmt.Errorf("topology: not connected: preorder visits %d of %d nodes", seen, n)
	}
	return nil
}

// finalize computes the rooted structure. The root is the first non-compute
// node if one exists, otherwise node 0.
func (t *Tree) finalize() {
	n := t.NumNodes()
	t.root = 0
	for v := 0; v < n; v++ {
		if !t.compute[v] {
			t.root = NodeID(v)
			break
		}
	}
	t.parent = make([]NodeID, n)
	t.parentEdge = make([]EdgeID, n)
	t.depth = make([]int32, n)
	t.childEnd = make([]NodeID, t.NumEdges())
	t.preorder = make([]NodeID, 0, n)
	t.tin = make([]int32, n)
	t.tout = make([]int32, n)
	for v := range t.parent {
		t.parent[v] = NoNode
		t.parentEdge[v] = NoEdge
	}

	// Iterative DFS that preserves adjacency (insertion) order.
	type frame struct {
		v    NodeID
		next int
	}
	stack := []frame{{t.root, 0}}
	var clock int32
	t.tin[t.root] = clock
	t.preorder = append(t.preorder, t.root)
	clock++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(t.adj[f.v]) {
			t.tout[f.v] = clock
			stack = stack[:len(stack)-1]
			continue
		}
		h := t.adj[f.v][f.next]
		f.next++
		if h.To == t.parent[f.v] {
			continue
		}
		t.parent[h.To] = f.v
		t.parentEdge[h.To] = h.Edge
		t.depth[h.To] = t.depth[f.v] + 1
		t.childEnd[h.Edge] = h.To
		t.tin[h.To] = clock
		t.preorder = append(t.preorder, h.To)
		clock++
		stack = append(stack, frame{h.To, 0})
	}

	t.computeList = t.computeList[:0]
	t.computeIndex = make([]int32, n)
	for v := 0; v < n; v++ {
		t.computeIndex[v] = -1
		if t.compute[v] {
			t.computeIndex[v] = int32(len(t.computeList))
			t.computeList = append(t.computeList, NodeID(v))
		}
	}

	t.buildLCA()
}
