// Package graph implements topology-aware graph processing on symmetric
// trees: connected components and spanning forests computed by iterative
// label-propagation contraction on the netsim exchange-plan runtime — the
// MPC literature's flagship workload (Andoni et al., FOCS 2018; Behnezhad
// et al., FOCS 2019) brought onto the tree-network cost model of the
// source paper.
//
// The input is an undirected multigraph whose edges are distributed over
// the compute nodes. Every vertex is hashed to a home compute node that
// owns its label; the protocol then runs Borůvka-style phases: each active
// edge proposes its endpoints' minimum neighbor label, homes hook labels
// onto smaller neighbors, pointer-jumping resolves the hooking forests to
// their root labels, and edges are relabeled in place, dropping the ones
// that became internal to a component. Because hooking always targets the
// minimum, the surviving labels of a phase form an independent set of the
// contracted graph, so the number of labels at least halves per phase and
// the protocol finishes in O(log n) phases; the final label of every
// component is its minimum vertex id, which makes outputs directly
// comparable to the centralized union-find reference (Reference).
//
// Two topology-aware levers separate the aware protocol from the flat
// baseline, both driven by the bandwidth capacities of
// place.Capacities:
//
//   - Home placement: vertices are hashed to compute nodes with
//     probability proportional to each node's bandwidth capacity into the
//     rest of the tree, so label state concentrates inside well-connected
//     subtrees and hot labels are not owned by nodes behind weak uplinks.
//   - Per-cut combining: the compute nodes are partitioned into the
//     recursive weak-cut hierarchy of place.HierarchyFor, and every label
//     exchange (per-edge label proposals, whose first sweep also registers
//     the vertices, and root lookups) is combined at the block combiners
//     of each hierarchy level where the pays-off test
//     (place.Hierarchy.CombinePays) holds, before crossing that level's
//     cut — root lookups fan back down the same chain. Duplicate (vertex → label) updates for a hot label then
//     cross each engaged cut once per block instead of once per node,
//     and blocks where combining cannot pay (majority-capacity regions,
//     singletons) skip the merge rounds entirely.
//
// The flat baseline hashes vertices uniformly and sends every update
// directly, as on a flat network. CC, CCFlat, SpanningForest and CCFast
// are four variants of one contraction loop (contract, cc.go): they choose
// the homes, whether proposals carry a witness edge, and the phase kind —
// Borůvka's, above, or the expanding phases of ccfast.go, which learn
// multi-hop neighborhoods by budgeted doubling before they hook. All are
// verified against the union-find reference (component count +
// canonical-label checksum), and are measured against the per-cut
// information bound lowerbound.Spanning. No optimality theorem is claimed
// — topology-aware graph connectivity is open.
package graph

import (
	"fmt"

	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Edge is one undirected graph edge. Self-loops are permitted in the input
// (they declare their vertex but connect nothing); parallel edges are
// permitted and harmless.
type Edge struct {
	U, V uint64
}

// Placement is the initial edge fragments per compute node, indexed in
// ComputeNodes order.
type Placement [][]Edge

// NumEdges reports the total number of input edges.
func (p Placement) NumEdges() int64 {
	var n int64
	for _, frag := range p {
		n += int64(len(frag))
	}
	return n
}

// Message tags of the connectivity protocol. Values are local to the
// engine run and never clash with other protocols.
const (
	tagVertex     netsim.Tag = 10 + iota // phase 1: vertices no proposal names: [v, ...]
	tagVertexUp                          // vertex entries, member → combiner
	tagPropose                           // label proposals: [a, b(, wu, wv), ...]
	tagProposeUp                         // proposals, member → combiner
	tagJumpQ                             // pointer-jump query: [q, ...]
	tagJumpStep                          // jump reply, one step: [q, parent, ...]
	tagJumpRoot                          // jump reply, resolved: [q, root, ...]
	tagLookupQ                           // root lookup query: [a, ...]
	tagLookupA                           // root lookup reply: [a, root, ...]
	tagLookupUp                          // lookup query, member → combiner
	tagLookupDown                        // lookup reply, combiner → member
	tagAdj                               // cc-fast adjacency: packed [a<<32|b, ...]
	tagKnow                              // cc-fast known-set push: packed [u<<32|x, ...]
)

// Result of a connectivity protocol run.
type Result struct {
	// PerNode maps, at each compute node, vertex -> final component label
	// for the vertices homed there. Labels are canonical: the minimum
	// vertex id of the component.
	PerNode []map[uint64]uint64
	// Components is the number of connected components.
	Components int64
	// Checksum is the order-independent fingerprint of the labeling,
	// comparable to Reference().Checksum.
	Checksum uint64
	// Forest holds the spanning-forest witness edges (one per hooking),
	// nil unless the run requested witnesses.
	Forest []Edge
	// Phases is the number of contraction phases executed.
	Phases int
	// Strategy identifies the protocol path: "flat", "aware" (capacity
	// homes, direct delivery), "aware+combine×L" with L the number of
	// hierarchy levels whose blocks combine the label exchanges, or "fast"
	// (CCFast: capacity homes, expanding phases).
	Strategy string
	// Report is the cost accounting.
	Report *netsim.Report
}

// Labels merges the per-home labelings into one map (for verification).
func (r *Result) Labels() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for _, m := range r.PerNode {
		for v, l := range m {
			out[v] = l
		}
	}
	return out
}

func checkPlacement(t *topology.Tree, edges Placement) error {
	if len(edges) != t.NumCompute() {
		return fmt.Errorf("graph: placement covers %d nodes, tree has %d compute nodes",
			len(edges), t.NumCompute())
	}
	return nil
}
