package topology

import "fmt"

// Graph is a connected weighted undirected multigraph of compute and
// router nodes: the general-network counterpart of Tree for deployments
// that are not trees — Clos fabrics with multipath, mesh and ring
// overlays. Parallel edges and cycles are allowed; self-loops are not.
// Bandwidths must be positive and finite (the +Inf free-link device of
// the tree normalizations has no counterpart here: a real multipath
// network has no infinite links, and min-cut arithmetic must stay
// finite).
//
// A Graph is not a network model by itself — no protocol runs on it.
// FromGraph compresses it into a Gomory–Hu equivalent-cut Tree whose
// per-edge cuts reproduce the graph's pairwise min-cuts exactly, and
// every protocol, the placement engine, and Tree.Memo run unchanged on
// that tree.
//
// Graphs are immutable after Build.
type Graph struct{ network }

// Validate checks the Graph invariants: non-empty, at least one compute
// node, positive finite bandwidths, no self-loops, and connectivity.
// GraphBuilder.Build runs it automatically; it is exported for graphs
// deserialized from external specs.
func (g *Graph) Validate() error {
	if err := g.check("graph", true); err != nil {
		return err
	}
	n := g.NumNodes()
	seen := make([]bool, n)
	stack := []NodeID{0}
	seen[0] = true
	visited := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[v] {
			if !seen[h.To] {
				seen[h.To] = true
				visited++
				stack = append(stack, h.To)
			}
		}
	}
	if visited != n {
		return fmt.Errorf("topology: graph %w: reached %d of %d nodes", ErrDisconnected, visited, n)
	}
	return nil
}

// GraphBuilder constructs a Graph incrementally. The zero value is ready
// to use. Unlike Builder it accepts cycles and parallel edges, whose
// capacities act independently (their cut contributions add up).
type GraphBuilder struct{ links }

// NewGraphBuilder returns an empty GraphBuilder.
func NewGraphBuilder() *GraphBuilder { return &GraphBuilder{} }

// Build validates the constructed multigraph and returns the immutable
// Graph. The graph must be connected with at least one compute node and
// finite bandwidths.
func (b *GraphBuilder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{b.net}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// GraphFromSpec builds a Graph from a Spec. Unlike FromSpec it accepts
// cycles and parallel edges but rejects the -1 infinite-bandwidth
// stand-in (general networks must have finite cuts).
func GraphFromSpec(s Spec) (*Graph, error) {
	var b GraphBuilder
	b.decode(s)
	return b.Build()
}

// ParseGraphJSON decodes a graph from Spec JSON.
func ParseGraphJSON(data []byte) (*Graph, error) { return parseSpec(data, GraphFromSpec) }
