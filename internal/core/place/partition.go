package place

import (
	"fmt"

	"topompc/internal/topology"
)

// This file owns the load-driven structural machinery of §3.3: the α/β
// edge classification and the balanced partition of Algorithm 3 /
// Definition 1. It moved here from internal/core/intersect so that every
// structural decomposition of the tree — capacity weights, weak-cut
// combining blocks, the recursive hierarchy, and the load-balanced
// partition — lives in the one placement package; intersect, join, and
// aggregate consume it from here.

// EdgeClass classifies an edge as α or β following §3.3: an edge e is a
// β-edge when both sides of its cut hold at least |R| elements
// (min{Σ_{V−e} N_v, Σ_{V+e} N_v} ≥ |R|), and an α-edge otherwise.
type EdgeClass uint8

// Edge classes.
const (
	Alpha EdgeClass = iota
	Beta
)

// ClassifyEdges labels every edge α or β for the given loads (N_v) and
// smaller-relation size.
func ClassifyEdges(t *topology.Tree, loads topology.Loads, sizeR int64) []EdgeClass {
	cuts := t.Cuts(loads)
	classes := make([]EdgeClass, t.NumEdges())
	for e := range classes {
		if cuts[e].Min() >= sizeR {
			classes[e] = Beta
		}
	}
	return classes
}

// BalancedPartition implements Algorithm 3: it groups the compute nodes
// into blocks satisfying the four properties of Definition 1. When the tree
// has no β-edges the partition is the single block of all compute nodes.
func BalancedPartition(t *topology.Tree, loads topology.Loads, sizeR int64) ([][]topology.NodeID, error) {
	classes := ClassifyEdges(t, loads, sizeR)
	hasBeta := false
	for _, c := range classes {
		if c == Beta {
			hasBeta = true
			break
		}
	}
	if !hasBeta {
		block := append([]topology.NodeID(nil), t.ComputeNodes()...)
		return [][]topology.NodeID{block}, nil
	}

	// α-connected components: the tree restricted to its α-edges.
	comp, numComp := components(t, func(e topology.EdgeID) bool { return classes[e] == Alpha })

	// Vertices of G_β are the endpoints of β-edges; Lemma 2 guarantees G_β
	// is a connected subtree. Each α-component contains exactly one G_β
	// vertex (two would close a cycle in the tree).
	vertOfComp := make([]topology.NodeID, numComp)
	for i := range vertOfComp {
		vertOfComp[i] = topology.NoNode
	}
	type gbVert struct {
		node   topology.NodeID
		gamma  []topology.NodeID // Γ(x): compute nodes α-connected to x
		weight int64             // w(x) = Σ_{v∈Γ(x)} N_v
		adj    map[topology.NodeID]int
		alive  bool
	}
	verts := make(map[topology.NodeID]*gbVert)
	addVert := func(v topology.NodeID) *gbVert {
		if g, ok := verts[v]; ok {
			return g
		}
		if prev := vertOfComp[comp[v]]; prev != topology.NoNode && prev != v {
			panic(fmt.Sprintf("place: α-component with two G_β vertices %v and %v", prev, v))
		}
		vertOfComp[comp[v]] = v
		g := &gbVert{node: v, adj: make(map[topology.NodeID]int), alive: true}
		verts[v] = g
		return g
	}
	for e := topology.EdgeID(0); int(e) < t.NumEdges(); e++ {
		if classes[e] != Beta {
			continue
		}
		a, b := t.Endpoints(e)
		ga, gb := addVert(a), addVert(b)
		ga.adj[b]++
		gb.adj[a]++
	}
	for _, v := range t.ComputeNodes() {
		x := vertOfComp[comp[v]]
		if x == topology.NoNode {
			// A compute node α-connected to no β endpoint is impossible when
			// β-edges exist: its component's boundary edges are β-edges whose
			// near endpoints lie inside the component.
			panic(fmt.Sprintf("place: compute node %v in α-component without G_β vertex", v))
		}
		g := verts[x]
		g.gamma = append(g.gamma, v)
		g.weight += loads[v]
	}

	// Algorithm 3 main loop: repeatedly take the leaf of G_β with the
	// smallest weight; emit its group if heavy enough, otherwise merge it
	// into its unique neighbor.
	var partition [][]topology.NodeID
	remaining := len(verts)
	for remaining > 0 {
		var pick *gbVert
		for _, g := range verts {
			if !g.alive || len(g.adj) > 1 {
				continue
			}
			if pick == nil || g.weight < pick.weight ||
				(g.weight == pick.weight && g.node < pick.node) {
				pick = g
			}
		}
		if pick == nil {
			return nil, fmt.Errorf("place: G_β has no leaf; not a tree")
		}
		if pick.weight >= sizeR || remaining == 1 {
			// The proof of Lemma 3 shows the final vertex always satisfies
			// w(x) ≥ |R|; emitting unconditionally keeps the partition total.
			if len(pick.gamma) > 0 {
				partition = append(partition, pick.gamma)
			}
		} else {
			var nb topology.NodeID = topology.NoNode
			for to := range pick.adj {
				nb = to
			}
			g := verts[nb]
			g.gamma = append(g.gamma, pick.gamma...)
			g.weight += pick.weight
			delete(g.adj, pick.node)
		}
		// Remove pick from G_β.
		for to := range pick.adj {
			delete(verts[to].adj, pick.node)
		}
		pick.alive = false
		delete(verts, pick.node)
		remaining--
	}
	return partition, nil
}

// CheckBalanced verifies the four properties of Definition 1 for a
// partition; it is used by tests and by the E5 experiment.
func CheckBalanced(t *topology.Tree, loads topology.Loads, sizeR int64, blocks [][]topology.NodeID) error {
	classes := ClassifyEdges(t, loads, sizeR)

	// Blocks must partition the compute nodes.
	blockOf := make(map[topology.NodeID]int)
	for i, b := range blocks {
		for _, v := range b {
			if _, dup := blockOf[v]; dup {
				return fmt.Errorf("node %v appears in two blocks", v)
			}
			blockOf[v] = i
		}
	}
	for _, v := range t.ComputeNodes() {
		if _, ok := blockOf[v]; !ok {
			return fmt.Errorf("compute node %v not covered by any block", v)
		}
	}

	hasBeta := false
	for _, c := range classes {
		if c == Beta {
			hasBeta = true
		}
	}

	// Property 1: α-connected compute nodes share a block. Two compute
	// nodes are α-connected iff their unique path uses only α-edges.
	vs := t.ComputeNodes()
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			allAlpha := true
			for _, e := range t.Path(nil, vs[i], vs[j]) {
				if classes[e] == Beta {
					allAlpha = false
					break
				}
			}
			if allAlpha && blockOf[vs[i]] != blockOf[vs[j]] {
				return fmt.Errorf("α-connected nodes %v, %v in different blocks", vs[i], vs[j])
			}
		}
	}

	// Property 2: each edge lies in the spanning subtree of at most one
	// block. Edge e is in block i's spanning subtree iff the block has
	// members on both sides of e.
	for e := topology.EdgeID(0); int(e) < t.NumEdges(); e++ {
		owners := 0
		for _, b := range blocks {
			below, above := 0, 0
			for _, v := range b {
				if t.OnChildSide(e, v) {
					below++
				} else {
					above++
				}
			}
			if below > 0 && above > 0 {
				owners++
			}
		}
		if owners > 1 {
			return fmt.Errorf("edge %v in spanning subtrees of %d blocks", e, owners)
		}
	}

	// Property 3: each block is heavy enough. The single-block case is
	// exempt when the total input is smaller than |R| (impossible for real
	// instances since N ≥ |R|).
	for i, b := range blocks {
		var w int64
		for _, v := range b {
			w += loads[v]
		}
		if w < sizeR && hasBeta {
			return fmt.Errorf("block %d weight %d < |R| = %d", i, w, sizeR)
		}
	}

	// Property 4: for every β-edge inside a block's spanning subtree, the
	// lighter block side is at most |R|.
	for e := topology.EdgeID(0); int(e) < t.NumEdges(); e++ {
		if classes[e] != Beta {
			continue
		}
		for i, b := range blocks {
			var below, above int64
			belowN, aboveN := 0, 0
			for _, v := range b {
				if t.OnChildSide(e, v) {
					below += loads[v]
					belowN++
				} else {
					above += loads[v]
					aboveN++
				}
			}
			if belowN == 0 || aboveN == 0 {
				continue // edge not in this block's spanning subtree
			}
			m := below
			if above < m {
				m = above
			}
			if m > sizeR {
				return fmt.Errorf("block %d: β-edge %v splits it into %d/%d, lighter side exceeds |R|=%d",
					i, e, below, above, sizeR)
			}
		}
	}
	return nil
}
