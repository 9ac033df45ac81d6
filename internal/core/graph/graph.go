// Package graph implements topology-aware graph processing on symmetric
// trees: connected components and spanning forests computed by iterative
// label-propagation contraction on the netsim exchange-plan runtime — the
// MPC literature's flagship workload (Andoni et al., FOCS 2018; Behnezhad
// et al., FOCS 2019) brought onto the tree-network cost model of the
// source paper.
//
// The input is an undirected multigraph whose edges are distributed over
// the compute nodes. Every vertex is hashed to a home compute node that
// owns its label; the protocol then runs Borůvka-style phases: every label
// an edge touches is offered the least label it is known to be connected
// to, homes hook labels onto their least offer when it is smaller,
// pointer-jumping resolves the hooking forests to their root labels, and
// edges are relabeled in place, dropping the ones that became internal to
// a component. CC and CCFlat contract what a node already knows, which the
// MPC algorithms above treat as free: a holder runs a union-find over its
// active edges and a combiner over the entries it holds and receives, and
// each label is offered the least label of its local component.
// SpanningForest offers the least neighbor label, which one edge joins.
// Either offer is at most the least neighbor, so a label with a smaller
// neighbor always hooks, the surviving labels of a phase form an
// independent set of the contracted graph, the number of labels at least
// halves per phase and the protocol finishes in O(log n) phases; the final
// label of every component is its minimum vertex id, which makes outputs
// directly comparable to the centralized union-find reference (Reference).
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
//     message they received with the root of each label, in order — a
//     change bitmap and only the roots that change, each a word or an
//     index into a palette of the few distinct ones, where that is
//     shorter — and the combiners pass the answers back down the same
//     chain. Duplicate (vertex → label)
//     updates for a hot label then cross each engaged cut once per block
//     instead of once per node, and blocks where combining cannot pay
//     (majority-capacity regions, singletons) skip the merge rounds
//     entirely.
//
// The flat baseline hashes vertices uniformly and sends every update
// directly, as on a flat network. CC, CCFlat, SpanningForest and CCFast
// are four variants of one contraction loop (contract, cc.go): they choose
// the homes, whether hookings record a witness edge, whether a gather is
// weighed against the contraction, and the phase kind —
// Borůvka's, above, or the expanding phases of ccfast.go, which learn
// multi-hop neighborhoods by budgeted doubling before they hook. An
// expanding phase seeds a bounded known-set per label with one adjacency
// round, exponentiates it with doubling rounds under a volume budget,
// proposes each set's minimum, and pushes the roots straight back to the
// nodes the adjacency round subscribed; with no doubling round it proposes
// each label's least neighbor, what a SpanningForest phase proposes.
//
// CC and SpanningForest are planned (gather.go): the contraction is
// weighed against a gather, one round in which every holder sends its
// edges, two words each, to the compute node g where that costs least, and
// g runs one union-find, keeping for SpanningForest the edges that join two
// sets as the forest. The gather is priced ahead by one O(V) rerooting
// sweep; the contraction's phase 1 runs as a netsim.Probe against that
// price and, once it costs as much, its rounds are dropped and the gather
// runs, every vertex homed at g. The contraction costs at least its phase
// 1, so the pick is never the dearer plan. CCFlat stays the flat
// baseline, and CCFast runs no gather.
//
// CCFast is the benchmark's alone (bench/, the graph-dense workload calls
// it directly): it is no task of the root package's table and no Cluster
// method. At one 64-bit word per element it costs more than CC on every
// fixture measured, and its adjacency and doubling rounds pack two 32-bit
// ids into one word; it goes, with tagAdj and tagKnow, once the benchmark
// stops calling it.
//
// Proposals travel on one wire in every variant: a message lists its
// entries [a, b] label-ascending, every b ≤ a, and writes an entry's b only
// where it differs from the entry before's, so a run of labels offered one
// root costs one word per label after its first. SpanningForest reads its
// forest off the hooking at the price of one bitmap per proposal answer: a
// holder keeps the graph edge behind each of its minima, a combiner and a
// home remember which received entry each minimum came from (the first
// offered of equal b's), and the answer to a proposal message leads its
// roots with a ⌈n/64⌉-word won bitmap, which passes each hooking back down
// the chain to the holder of its edge. All are verified against the
// union-find reference (component count + canonical-label checksum), and
// are measured against the per-cut bound lowerbound.Spanning over vertex
// holders (ReferenceSpread), a cost floor for these variants, the gather
// included, that dominates its term over component holders (Ref.Spread) on
// every edge (the lowerbound.Spanning doc gives the argument and its
// scope). No
// optimality theorem is claimed — topology-aware graph connectivity is
// open.
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
	tagPropose                          // label proposals, label-ascending, each b ≤ a written only where it changes: [a1, b1, a2, a3, b3, ...]
	tagProposeUp                        // proposals, member → combiner
	tagNeed                             // later phases: homed vertex labels no proposal names: [a, ...]
	tagNeedUp                           // need entries, member → combiner
	tagJumpQ                            // pointer-jump query: [q, ...]
	tagJumpA                            // jump reply in query order: [resolved bitmap (⌈n/64⌉ words), value, ...], value = root if resolved, else parent
	tagRoots                            // answer to one proposal or need message, home → sender or combiner → member, in its label order: n roots [root, ...], or, when shorter, a change bitmap (⌈n/64⌉ words, bit k set where the k-th root differs from the one before) and the roots of its set bits, a word each or, when shorter, as a palette of k ≤ 16 distinct roots and one 1-, 2- or 4-bit index per set bit; the asker's n and the bitmap's count tell the forms apart; spanforest's answer to a proposal message leads with its won bitmap (⌈n/64⌉ words), as tagJumpA with its resolved one
	tagAdj                              // cc-fast adjacency: packed [a<<32|b, ...]
	tagKnow                             // cc-fast known-set push: packed [u<<32|x, ...]
	tagEdge                             // gathered edges, holder → gathering node: [u, v, ...]
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
	// Phases is the number of contraction phases executed, 0 when the
	// gather ran.
	Phases int
	// Strategy identifies the protocol path: "flat", "aware" (capacity
	// homes, direct delivery), "aware+combine×L" with L the number of
	// hierarchy levels whose blocks combine the label exchanges, "gather"
	// (CC and SpanningForest: every edge sent to one node, which labels
	// every vertex) or "fast" (CCFast, which only the benchmark runs:
	// capacity homes, expanding phases).
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
