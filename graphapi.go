package topompc

import (
	"fmt"

	"topompc/internal/core/graph"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// GraphEdge is one undirected graph edge for the connectivity tasks.
// Self-loops declare their vertex without connecting anything; parallel
// edges are permitted.
type GraphEdge = graph.Edge

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
	return c.graphWith(edges, seed, graph.CC)
}

// ConnectedComponentsBaseline runs the topology-oblivious baseline:
// uniform vertex homes and direct update delivery, as on a flat network.
func (c *Cluster) ConnectedComponentsBaseline(edges [][]GraphEdge, seed uint64) (*ComponentsResult, error) {
	return c.graphWith(edges, seed, graph.CCFlat)
}

// SpanningForest computes connected components together with a spanning
// forest: each contraction hooking records the original graph edge that
// joined the two components. The forest is verified to be spanning and
// acyclic against the union-find reference.
func (c *Cluster) SpanningForest(edges [][]GraphEdge, seed uint64) (*ComponentsResult, error) {
	return c.graphWith(edges, seed, graph.SpanningForest)
}

// graphProtocol is the entry point every connectivity variant shares.
type graphProtocol func(t *topology.Tree, edges graph.Placement, seed uint64, opts ...netsim.Option) (*graph.Result, error)

// graphWith is the connectivity pipeline: component count and labeling
// checksum must match the union-find reference, and a forest, when the
// protocol returns one, must span it without cycles (graph.Verify); the
// cost is set against the per-cut connectivity bound, whose component
// holder lists come from the same reference (one union-find per call).
func (c *Cluster) graphWith(edges [][]GraphEdge, seed uint64, run graphProtocol) (*ComponentsResult, error) {
	if err := c.checkFragments("edges", len(edges)); err != nil {
		return nil, err
	}
	res, lb, err := verified(c, func(opts ...netsim.Option) (*graph.Result, error) {
		return run(c.t, edges, seed, opts...)
	}, func() (*graph.Ref, float64) {
		ref := graph.Reference(edges)
		return ref, lowerbound.Spanning(c.t, ref.Spread(c.t)).Value
	}, graph.Verify)
	if err != nil {
		return nil, err
	}
	return &ComponentsResult{
		Components: res.Components,
		PerNode:    res.PerNode,
		Forest:     res.Forest,
		Phases:     res.Phases,
		Strategy:   res.Strategy,
		Cost:       costOf(res.Report, lb),
		Report:     res.Report,
	}, nil
}

// graphTask reads every key as one packed edge, EncodeTuple2({u, v}).
func graphTask(run graphProtocol) func(*Cluster, TaskInput) (*TaskResult, error) {
	return func(c *Cluster, in TaskInput) (*TaskResult, error) {
		edges := decodeFrags(in.Data, func(key uint64) GraphEdge {
			t := DecodeTuple2(key)
			return GraphEdge{U: t.A, V: t.B}
		})
		res, err := c.graphWith(edges, in.Seed, run)
		if err != nil {
			return nil, err
		}
		var verts int
		for _, m := range res.PerNode {
			verts += len(m)
		}
		summary := fmt.Sprintf("V=%d E=%d components=%d phases=%d strategy=%s",
			verts, sizes(in.Data), res.Components, res.Phases, res.Strategy)
		if res.Forest != nil {
			summary += fmt.Sprintf(" forest=%d", len(res.Forest))
		}
		return &TaskResult{Summary: summary, Cost: res.Cost, Report: res.Report}, nil
	}
}
