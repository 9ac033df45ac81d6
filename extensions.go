package topompc

import (
	"topompc/internal/core/aggregate"
	"topompc/internal/core/join"
	"topompc/internal/netsim"
)

// This file exposes the extension tasks built on top of the paper's
// primitives: group-by aggregation and binary equi-joins. See the
// internal/core/aggregate and internal/core/join package docs for scope and
// caveats — no optimality theorems are claimed for these.

// GroupValue is one (group, value) record for aggregation.
type GroupValue struct {
	Group uint64
	Value int64
}

// AggregateResult is the outcome of a distributed group-by aggregation.
type AggregateResult struct {
	// Totals maps every group to its total; each group was produced at
	// exactly one node.
	Totals map[uint64]int64
	// Cost is the execution cost against the exact spanning-groups lower
	// bound (each partial aggregate costs 2 wire elements).
	Cost Cost
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// Aggregate computes per-group totals with the two-level (rack-combining)
// strategy: groups are first merged inside the blocks of a balanced
// partition, then block partials are hashed globally. Two rounds.
func (c *Cluster) Aggregate(data [][]GroupValue, seed uint64) (*AggregateResult, error) {
	return c.aggregateWith(data, func(p aggregate.Placement) (*aggregate.Result, error) {
		return aggregate.TwoLevel(c.t, p, seed, c.exec.netsimOpts()...)
	})
}

// AggregateBaseline computes per-group totals with single-round uniform
// hashing (no rack combining), for comparison.
func (c *Cluster) AggregateBaseline(data [][]GroupValue, seed uint64) (*AggregateResult, error) {
	return c.aggregateWith(data, func(p aggregate.Placement) (*aggregate.Result, error) {
		return aggregate.Hash(c.t, p, seed, c.exec.netsimOpts()...)
	})
}

// AggregateAware computes per-group totals with single-level combiner-tree
// aggregation: partial aggregates merge once per weak-cut block
// (place.CombinerBlocks) before anything crosses a weak link, then the
// merged block partials are hashed to capacity-weighted group homes. At
// most two rounds; degrades to one round of capacity-weighted hashing when
// the topology has no weak cut. AggregateMultiLevel generalizes it to the
// full weak-cut hierarchy.
func (c *Cluster) AggregateAware(data [][]GroupValue, seed uint64) (*AggregateResult, error) {
	return c.aggregateWith(data, func(p aggregate.Placement) (*aggregate.Result, error) {
		return aggregate.CombinerTreeSingle(c.t, p, seed, c.exec.netsimOpts()...)
	})
}

// AggregateMultiLevel computes per-group totals with the recursive
// combiner tree: partial aggregates merge once per block per level of the
// weak-cut hierarchy (place.HierarchyFor), deepest level first, before the
// merged partials are hashed to capacity-weighted group homes. On deep
// bandwidth gradients (tapered fat-trees, graded caterpillars) every tier
// dedupes its cut's traffic; on single-band topologies it coincides with
// AggregateAware, and with no weak cut at all it degrades to one round of
// capacity-weighted hashing.
func (c *Cluster) AggregateMultiLevel(data [][]GroupValue, seed uint64) (*AggregateResult, error) {
	return c.aggregateWith(data, func(p aggregate.Placement) (*aggregate.Result, error) {
		return aggregate.CombinerTree(c.t, p, seed, c.exec.netsimOpts()...)
	})
}

// AggregateAwareBaseline runs the flat counterpart of AggregateAware: one
// round of uniform hashing with no block combining, sharing the chooser
// seed so the combiner-tree levers are measured in isolation.
func (c *Cluster) AggregateAwareBaseline(data [][]GroupValue, seed uint64) (*AggregateResult, error) {
	return c.aggregateWith(data, func(p aggregate.Placement) (*aggregate.Result, error) {
		return aggregate.HashFlat(c.t, p, seed, c.exec.netsimOpts()...)
	})
}

func (c *Cluster) aggregateWith(data [][]GroupValue,
	run func(aggregate.Placement) (*aggregate.Result, error)) (*AggregateResult, error) {
	if err := c.checkFragmentCount("data", len(data)); err != nil {
		return nil, err
	}
	placement := make(aggregate.Placement, len(data))
	for i, frag := range data {
		placement[i] = make([]aggregate.Pair, len(frag))
		for j, gv := range frag {
			placement[i][j] = aggregate.Pair{Group: gv.Group, Value: gv.Value}
		}
	}
	res, err := run(placement)
	if err != nil {
		return nil, err
	}
	lb := aggregate.LowerBound(c.t, placement)
	return &AggregateResult{
		Totals: res.Totals(),
		Cost:   c.costOf(res.Report, lb),
		Report: res.Report,
	}, nil
}

// Row is one relation row for a join: a join key plus an opaque payload.
type Row struct {
	Key     uint64
	Payload uint64
}

// JoinResult is the outcome of a distributed equi-join. Pairs are
// enumerated at the nodes, not materialized centrally.
type JoinResult struct {
	// Pairs is the total number of joined output pairs.
	Pairs int64
	// PairsPerNode is the per-node share of the output.
	PairsPerNode []int64
	// Cost is the execution cost in wire elements (2 per tuple). No lower
	// bound is claimed for joins; LowerBound is 0 and Ratio is +Inf unless
	// the cost is 0.
	Cost Cost
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// Join computes R ⋈ S on the join key with the topology-aware plan
// (balanced partition + weighted in-block hashing; the smaller relation's
// key-groups are replicated across blocks). One round.
func (c *Cluster) Join(r, s [][]Row, seed uint64) (*JoinResult, error) {
	return c.joinWith(r, s, func(pr, ps join.Placement) (*join.Result, error) {
		return join.Tree(c.t, pr, ps, seed, c.exec.netsimOpts()...)
	})
}

// JoinBaseline computes R ⋈ S with the topology-oblivious uniform hash
// join, for comparison.
func (c *Cluster) JoinBaseline(r, s [][]Row, seed uint64) (*JoinResult, error) {
	return c.joinWith(r, s, func(pr, ps join.Placement) (*join.Result, error) {
		return join.UniformHash(c.t, pr, ps, seed, c.exec.netsimOpts()...)
	})
}

func (c *Cluster) joinWith(r, s [][]Row,
	run func(join.Placement, join.Placement) (*join.Result, error)) (*JoinResult, error) {
	if err := c.checkFragmentCount("r", len(r)); err != nil {
		return nil, err
	}
	if err := c.checkFragmentCount("s", len(s)); err != nil {
		return nil, err
	}
	conv := func(in [][]Row) join.Placement {
		out := make(join.Placement, len(in))
		for i, frag := range in {
			for _, row := range frag {
				out[i] = append(out[i], join.Tuple{Key: row.Key, Payload: row.Payload})
			}
		}
		return out
	}
	res, err := run(conv(r), conv(s))
	if err != nil {
		return nil, err
	}
	return &JoinResult{
		Pairs:        res.TotalPairs(),
		PairsPerNode: res.PerNode,
		Cost:         c.costOf(res.Report, 0),
		Report:       res.Report,
	}, nil
}
