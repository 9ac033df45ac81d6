package topompc

import (
	"fmt"

	"topompc/internal/core/graph"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
)

// GraphEdge is one undirected graph edge for the connectivity tasks.
// Self-loops declare their vertex without connecting anything; parallel
// edges are permitted.
type GraphEdge struct {
	U, V uint64
}

// ComponentsResult is the outcome of a distributed connected-components or
// spanning-forest run.
type ComponentsResult struct {
	// Components is the number of connected components.
	Components int64
	// PerNode maps, at each compute node, vertex -> canonical component
	// label (the minimum vertex id of the component) for the vertices
	// homed there.
	PerNode []map[uint64]uint64
	// Forest holds the spanning-forest witness edges (SpanningForest
	// only).
	Forest []GraphEdge
	// Phases is the number of label-contraction phases executed.
	Phases int
	// Strategy identifies the protocol path: "flat", "aware" (capacity
	// homes, direct delivery), or "aware+combine×L" with L the number of
	// hierarchy levels whose blocks merge label exchanges.
	Strategy string
	// Cost is the execution cost against the per-cut connectivity
	// information bound (lowerbound.Spanning).
	Cost Cost
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// ConnectedComponents labels every vertex of the distributed graph with
// its component's minimum vertex id, using the topology-aware protocol:
// vertices are homed by capacity-weighted hashing and label updates are
// combined per weak cut before crossing it. edges[i] is the edge fragment
// initially held by compute node i. The labeling is verified against a
// centralized union-find reference (component count + checksum) before
// returning.
func (c *Cluster) ConnectedComponents(edges [][]GraphEdge, seed uint64) (*ComponentsResult, error) {
	return c.graphWith(edges, func(pl graph.Placement) (*graph.Result, error) {
		return graph.CC(c.t, pl, seed, c.exec.netsimOpts()...)
	})
}

// ConnectedComponentsFast labels every vertex with its component's
// minimum vertex id using budgeted graph exponentiation: each phase
// learns bounded multi-hop neighborhoods by doubling before hooking, so
// low-diameter regions contract in one phase and the exchange-round
// count drops well below the Borůvka schedule of ConnectedComponents.
// Same inputs, verification, and result contract as ConnectedComponents.
func (c *Cluster) ConnectedComponentsFast(edges [][]GraphEdge, seed uint64) (*ComponentsResult, error) {
	return c.graphWith(edges, func(pl graph.Placement) (*graph.Result, error) {
		return graph.CCFast(c.t, pl, seed, c.exec.netsimOpts()...)
	})
}

// ConnectedComponentsBaseline runs the topology-oblivious baseline:
// uniform vertex homes and direct update delivery, as on a flat network.
func (c *Cluster) ConnectedComponentsBaseline(edges [][]GraphEdge, seed uint64) (*ComponentsResult, error) {
	return c.graphWith(edges, func(pl graph.Placement) (*graph.Result, error) {
		return graph.CCFlat(c.t, pl, seed, c.exec.netsimOpts()...)
	})
}

// SpanningForest computes connected components together with a spanning
// forest: each contraction hooking records the original graph edge that
// joined the two components. The forest is verified to be spanning and
// acyclic against the union-find reference.
func (c *Cluster) SpanningForest(edges [][]GraphEdge, seed uint64) (*ComponentsResult, error) {
	return c.graphWith(edges, func(pl graph.Placement) (*graph.Result, error) {
		return graph.SpanningForest(c.t, pl, seed, c.exec.netsimOpts()...)
	})
}

func (c *Cluster) graphWith(edges [][]GraphEdge,
	run func(graph.Placement) (*graph.Result, error)) (*ComponentsResult, error) {
	if err := c.checkFragmentCount("edges", len(edges)); err != nil {
		return nil, err
	}
	pl := make(graph.Placement, len(edges))
	for i, frag := range edges {
		pl[i] = make([]graph.Edge, len(frag))
		for j, e := range frag {
			pl[i][j] = graph.Edge{U: e.U, V: e.V}
		}
	}
	res, err := run(pl)
	if err != nil {
		return nil, err
	}
	ref := graph.Reference(pl)
	if res.Components != ref.Count || res.Checksum != ref.Checksum {
		return nil, fmt.Errorf("topompc: connectivity found %d components (checksum %x), reference has %d (%x)",
			res.Components, res.Checksum, ref.Count, ref.Checksum)
	}
	if res.Forest != nil {
		if err := graph.VerifyForest(ref, res.Forest); err != nil {
			return nil, err
		}
	}
	lb := lowerbound.Spanning(c.t, graph.ComponentSpread(c.t, pl))
	out := &ComponentsResult{
		Components: res.Components,
		PerNode:    res.PerNode,
		Phases:     res.Phases,
		Strategy:   res.Strategy,
		Cost:       c.costOf(res.Report, lb.Value),
		Report:     res.Report,
	}
	if res.Forest != nil {
		out.Forest = make([]GraphEdge, len(res.Forest))
		for i, e := range res.Forest {
			out.Forest[i] = GraphEdge{U: e.U, V: e.V}
		}
	}
	return out, nil
}
