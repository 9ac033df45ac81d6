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
//   - general networks: a Graph, built with a GraphBuilder or a generator
//     (Mesh, RingOfRacks, Clos, RandomizedFanout), may have cycles and
//     parallel links, and FromGraph compresses it to its Gomory–Hu
//     equivalent-cut Tree;
//   - the two w.l.o.g. normalizations of §2.1 (push compute nodes to leaves,
//     contract degree-2 routers);
//   - per-edge cuts (V−e, V+e) with load aggregation, the basis of every
//     lower bound in the paper;
//   - the directed tree G† of §4.1 together with its minimal covers and the
//     minimum-Σw² cover DP used by both Theorem 4 and Algorithm 5;
//   - left-to-right valid orderings of compute nodes (§5);
//   - one JSON Spec for trees and graphs (FromSpec, GraphFromSpec), and
//     ASCII rendering.
//
// Tree and Graph share one node and link table, and Builder and
// GraphBuilder one construction core; only their Build checks differ.
// Every construction error wraps one of the named sentinels (ErrEmpty,
// ErrNoCompute, ErrUnknownNode, ErrSelfLoop, ErrBadBandwidth, ErrNotTree,
// ErrDisconnected).
//
// Trees are immutable after Build; all derived structures are precomputed so
// that queries used in protocol inner loops (paths, cuts, subtree tests) are
// allocation-free.
package topology

import (
	"fmt"
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

// Tree is an immutable symmetric tree network. Its node and link table —
// NumNodes, NumEdges, NumCompute, Name, IsCompute, Bandwidth, Endpoints,
// Neighbors, Degree, ComputeNodes, ToSpec, MarshalJSON — is the one a
// Graph has too.
//
// The tree is rooted (at an arbitrary router when one exists) purely as an
// internal device for path and cut computations; the root has no semantic
// meaning in the model.
type Tree struct {
	network

	root       NodeID
	parent     []NodeID // parent in the rooted orientation; NoNode at root
	parentEdge []EdgeID // edge to parent; NoEdge at root
	depth      []int32
	childEnd   []NodeID // per edge: the endpoint farther from the root
	preorder   []NodeID // DFS preorder following adjacency order
	tin, tout  []int32  // Euler intervals for subtree tests
	lca        *lcaIndex

	computeIndex []int32 // NodeID -> position in ComputeNodes, -1 for routers

	memoMu sync.Mutex  // guards memo
	memo   map[any]any // lazily-initialized derived-structure cache (Memo)
}

// Builder constructs a Tree incrementally. The zero value is ready to use.
//
// Node insertion order determines NodeIDs and the left-to-right orientation
// of the tree; edge insertion order determines EdgeIDs and the child order
// used by traversals.
type Builder struct{ links }

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Build validates the constructed network and returns the immutable Tree.
// It must be a connected tree with at least one compute node: n-1 links
// that close no cycle and link no pair twice.
func (b *Builder) Build() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &Tree{network: b.net}
	if err := t.shape(); err != nil {
		return nil, err
	}
	if err := t.finalize(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustBuild is Build for static topologies; it panics on error.
func (b *Builder) MustBuild() *Tree { return must(b.Build()) }

// FromSpec builds a Tree from a Spec.
func FromSpec(s Spec) (*Tree, error) {
	var b Builder
	b.decode(s)
	return b.Build()
}

// ParseJSON decodes a tree from Spec JSON.
func ParseJSON(data []byte) (*Tree, error) { return parseSpec(data, FromSpec) }

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

// OnChildSide reports whether v lies in the subtree under e's endpoint
// farther from the root, i.e. on the child side of the cut induced by e.
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
	if err := t.shape(); err != nil {
		return err
	}
	if n := t.NumNodes(); len(t.preorder) != n {
		return fmt.Errorf("topology: tree %w: preorder visits %d of %d nodes", ErrDisconnected, len(t.preorder), n)
	}
	return nil
}

// shape checks what Build can check before rooting the tree: the network
// basics and n-1 edges.
func (t *Tree) shape() error {
	if err := t.check("tree", false); err != nil {
		return err
	}
	if n := t.NumNodes(); t.NumEdges() != n-1 {
		return fmt.Errorf("topology: %w: %d edges for %d nodes; a tree needs exactly %d", ErrNotTree, t.NumEdges(), n, n-1)
	}
	return nil
}

// finalize computes the rooted structure. The root is the first non-compute
// node if one exists, otherwise node 0. With n-1 edges, a link back to a
// reached node other than the parent edge, or a node left unreached, means
// the links are not a tree.
func (t *Tree) finalize() error {
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
		t.tin[v] = -1 // unreached
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
		if h.Edge == t.parentEdge[f.v] {
			continue
		}
		if t.tin[h.To] >= 0 {
			return t.closes(f.v, h)
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
	if len(t.preorder) != n {
		return fmt.Errorf("topology: %w: %d of %d nodes are unreachable from node %s, so the %d edges close a cycle",
			ErrNotTree, n-len(t.preorder), n, t.node(t.root), t.NumEdges())
	}

	t.computeIndex = make([]int32, n)
	for v := range t.computeIndex {
		t.computeIndex[v] = -1
	}
	for i, v := range t.computeList {
		t.computeIndex[v] = int32(i)
	}

	t.buildLCA()
	return nil
}

// closes reports the link h from v back to an already reached node: a
// second link to v's parent, or one that closes a longer cycle.
func (t *Tree) closes(v NodeID, h Half) error {
	if pe := t.parentEdge[v]; h.To == t.parent[v] {
		return fmt.Errorf("topology: %w: edge %d duplicates edge %d between nodes %s and %s",
			ErrNotTree, max(h.Edge, pe), min(h.Edge, pe), t.node(v), t.node(h.To))
	}
	return fmt.Errorf("topology: %w: edge %d (%s-%s) closes a cycle", ErrNotTree, h.Edge, t.node(v), t.node(h.To))
}
