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
//     recursive weak-cut hierarchy of place.HierarchyFor, and the
//     per-edge label proposals (whose first sweep also registers the
//     vertices, and whose later sweeps carry the labels of homed vertices
//     no proposal names) are combined at the block combiners of each
//     hierarchy level where the pays-off test (place.Hierarchy.CombinePays)
//     holds, before crossing that level's cut. The proposal sweep is also
//     the root query: once pointer jumping ends, the homes answer every
//     message they received with one root per label, and the combiners
//     pass the answers back down the same chain. Duplicate (vertex → label)
//     updates for a hot label then cross each engaged cut once per block
//     instead of once per node, and blocks where combining cannot pay
//     (majority-capacity regions, singletons) skip the merge rounds
//     entirely.
//
// The flat baseline hashes vertices uniformly and sends every update
// directly, as on a flat network. CC, CCFlat, SpanningForest and CCFast
// are four variants of one contraction loop (contract, cc.go): they choose
// the homes, whether hookings record a witness edge, and the phase kind —
// Borůvka's, above, or the expanding phases of ccfast.go, which learn
// multi-hop neighborhoods by budgeted doubling before they hook. An
// expanding phase seeds a bounded known-set per label with one adjacency
// round, exponentiates it with doubling rounds under a volume budget,
// proposes each set's minimum, and pushes the roots straight back to the
// nodes the adjacency round subscribed; with no doubling round it proposes
// exactly what a Borůvka phase proposes.
//
// CCFast is the benchmark's alone (bench/, the graph-dense workload calls
// it directly): it is no task of the root package's table and no Cluster
// method. At one 64-bit word per element it costs more than CC on every
// fixture measured, and its adjacency and doubling rounds pack two 32-bit
// ids into one word; it goes, with tagAdj and tagKnow, once the benchmark
// stops calling it.
//
// A proposal is [a, b] on the wire in every variant. SpanningForest reads
// its forest off the hooking at the price of one bitmap per proposal
// answer: a holder keeps the graph edge behind each of its minima, a
// combiner and a home remember which received entry each minimum came
// from (the first offered of equal b's), and the answer to a proposal
// message leads its roots with a ⌈n/64⌉-word won bitmap, which passes each
// hooking back down the chain to the holder of its edge. All are
// verified against the union-find reference (component count +
// canonical-label checksum), and are measured against the per-cut
// information bound lowerbound.Spanning. No optimality theorem is claimed
// — topology-aware graph connectivity is open.
package graph

import (
	"fmt"

	"topompc/internal/hashing"
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
	tagVertex    netsim.Tag = 10 + iota // phase 1: vertices no proposal names: [v, ...]
	tagVertexUp                         // vertex entries, member → combiner
	tagPropose                          // label proposals: [a, b, ...]
	tagProposeUp                        // proposals, member → combiner
	tagNeed                             // later phases: homed vertex labels no proposal names: [a, ...]
	tagNeedUp                           // need entries, member → combiner
	tagJumpQ                            // pointer-jump query: [q, ...]
	tagJumpA                            // jump reply in query order: [resolved bitmap (⌈n/64⌉ words), value, ...], value = root if resolved, else parent
	tagRoots                            // answer to one proposal or need message, home → sender or combiner → member, in its label order: [root, ...]; spanforest's answer to a proposal message leads with its won bitmap (⌈n/64⌉ words), as tagJumpA with its resolved one
	tagAdj                              // cc-fast adjacency: packed [a<<32|b, ...]
	tagKnow                             // cc-fast known-set push: packed [u<<32|x, ...]
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
	// (CCFast, which only the benchmark runs: capacity homes, expanding
	// phases).
	Strategy string
	// Report is the cost accounting.
	Report *netsim.Report
}

// Checksum fingerprints a vertex → label map order-independently; the
// protocols and the reference compute the same quantity so any labeling
// divergence is caught without comparing maps entry by entry.
func Checksum(labels map[uint64]uint64) uint64 {
	var sum uint64
	for v, l := range labels {
		sum += hashing.Mix64(v + hashing.Mix64(l))
	}
	return sum
}

func checkPlacement(t *topology.Tree, edges Placement) error {
	if len(edges) != t.NumCompute() {
		return fmt.Errorf("graph: placement covers %d nodes, tree has %d compute nodes",
			len(edges), t.NumCompute())
	}
	return nil
}
