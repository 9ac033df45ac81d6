package topology

import "fmt"

// FromGraph compresses a general network into a Gomory–Hu equivalent-cut
// tree: a Tree over exactly the graph's nodes (names, order, and compute
// flags preserved) in which, for every node pair (u, v), the minimum
// edge bandwidth on the tree path between u and v equals the max-flow
// (= min-cut capacity) between u and v in the original graph.
//
// This is the front-end that lets every tree protocol run on arbitrary
// topologies: the paper derives all its bounds from per-edge cuts, and
// the cut tree represents the graph's cut structure exactly — each tree
// edge's bandwidth is a true min-cut of the graph, so modeled per-edge
// costs on the tree are bottleneck-faithful. What the compression gives
// up is path multiplicity: traffic that the real network would spread
// over parallel paths is modeled as crossing the single bottleneck cut.
//
// The construction is Gusfield's simplification: n−1 max-flow
// computations on the unmodified graph (no vertex contractions), each
// refining a star of tentative tree edges. Max-flows run on a reusable
// Dinic residual network, so the whole build costs n−1 Dinic runs and
// O(V+E) space. The result is deterministic for a given graph.
func FromGraph(g *Graph) (*Tree, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	parent := make([]NodeID, n) // tentative tree parent; starts as a star on node 0
	flow := make([]float64, n)  // min-cut value to parent
	if n > 1 {
		net := newFlowNet(g)
		side := make([]bool, n)
		for i := 1; i < n; i++ {
			net.reset()
			flow[i] = net.maxflow(NodeID(i), parent[i])
			net.minCutSide(NodeID(i), side)
			// Every later node that sits on i's side of this min cut and
			// currently hangs off the same parent re-hangs off i.
			for j := i + 1; j < n; j++ {
				if side[j] && parent[j] == parent[i] {
					parent[j] = NodeID(i)
				}
			}
		}
	}

	b := NewBuilder()
	for v := 0; v < n; v++ {
		if g.IsCompute(NodeID(v)) {
			b.Compute(g.Name(NodeID(v)))
		} else {
			b.Router(g.Name(NodeID(v)))
		}
	}
	for i := 1; i < n; i++ {
		b.Link(NodeID(i), parent[i], flow[i])
	}
	t, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("topology: FromGraph produced invalid cut tree: %w", err)
	}
	return t, nil
}
