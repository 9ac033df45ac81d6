package topompc

import (
	"fmt"

	"topompc/internal/core/aggregate"
	"topompc/internal/core/join"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// This file exposes the extension tasks built on top of the paper's
// primitives: group-by aggregation and binary equi-joins. See the
// internal/core/aggregate and internal/core/join package docs for scope and
// caveats — no optimality theorems are claimed for these, though both are
// costed against a lower bound.

// GroupValue is one (group, value) record for aggregation.
type GroupValue = aggregate.Pair

// AggregateResult is the outcome of a distributed group-by aggregation.
type AggregateResult struct {
	// Totals maps every group to its total; each group was produced at
	// exactly one node.
	Totals map[uint64]int64
	// Strategy is the path the protocol took: "hash" (AggregateBaseline),
	// or the candidate Aggregate picked: "twolevel", "hash", "flat-hash",
	// "gather", "combiner-tree×L" (the multi-level tree with L merge
	// levels), "combiner-tree" (the single-level tree) or "capacity-hash"
	// (a combiner tree with no weak cut that pays for combining).
	Strategy string
	// Cost is the execution cost against the exact spanning-groups lower
	// bound (each partial aggregate costs 2 wire elements).
	Cost Cost
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// Aggregate computes per-group totals with the planned aggregation: it
// prices two-level rack combining, weighted hashing, the multi-level
// combiner tree on the weak-cut hierarchy, uniform hashing, a gather at the
// node where it costs least and, on hierarchies deeper than one level, the
// single-level combiner tree, and runs the cheapest (one to L+1 rounds).
func (c *Cluster) Aggregate(data [][]GroupValue, seed uint64) (*AggregateResult, error) {
	return c.aggregateWith(data, seed, aggregate.Planned)
}

// AggregateBaseline computes per-group totals with single-round
// group-count-weighted hashing (no rack combining), for comparison.
func (c *Cluster) AggregateBaseline(data [][]GroupValue, seed uint64) (*AggregateResult, error) {
	return c.aggregateWith(data, seed, aggregate.Hash)
}

// aggregateProtocol is the entry point every aggregation variant shares.
type aggregateProtocol func(t *topology.Tree, data aggregate.Placement, seed uint64, opts ...netsim.Option) (*aggregate.Result, error)

// aggregateWith is the aggregation pipeline: every reference group total
// must be produced, correctly, at exactly one node (aggregate.Verify); the
// cost is set against the spanning-groups bound.
func (c *Cluster) aggregateWith(data [][]GroupValue, seed uint64, run aggregateProtocol) (*AggregateResult, error) {
	if err := c.checkFragments("data", len(data)); err != nil {
		return nil, err
	}
	res, lb, err := verified(c, func(opts ...netsim.Option) (*aggregate.Result, error) {
		return run(c.t, data, seed, opts...)
	}, func() (map[uint64]int64, float64) {
		return aggregate.Reference(data), aggregate.LowerBound(c.t, data)
	}, aggregate.Verify)
	if err != nil {
		return nil, err
	}
	return &AggregateResult{
		Totals:   res.Totals(),
		Strategy: res.Strategy,
		Cost:     costOf(res.Report, lb),
		Report:   res.Report,
	}, nil
}

// aggregateTask counts group multiplicities: every key is a (Group=key,
// Value=1) record.
func aggregateTask(run aggregateProtocol) func(*Cluster, TaskInput) (*TaskResult, error) {
	return func(c *Cluster, in TaskInput) (*TaskResult, error) {
		data := decodeFrags(in.Data, func(key uint64) GroupValue { return GroupValue{Group: key, Value: 1} })
		res, err := c.aggregateWith(data, in.Seed, run)
		if err != nil {
			return nil, err
		}
		return &TaskResult{
			Summary: fmt.Sprintf("records=%d groups=%d strategy=%s", sizes(in.Data), len(res.Totals), res.Strategy),
			Cost:    res.Cost,
			Report:  res.Report,
		}, nil
	}
}

// Row is one relation row for a join: a join key plus an opaque payload.
type Row = join.Tuple

// JoinResult is the outcome of a distributed equi-join. Pairs are
// enumerated at the nodes, not materialized centrally.
type JoinResult struct {
	// Pairs is the total number of joined output pairs.
	Pairs int64
	// PairsPerNode is the per-node share of the output.
	PairsPerNode []int64
	// Cost is the execution cost in wire elements (2 per tuple) against
	// Theorem 1's intersection bound over the tuples' two words: loads
	// 2(|R_v|+|S_v|), sizes 2|R| and 2|S|. An equi-join of two sets is
	// their intersection, so the bound is the join's worst case over inputs
	// with these loads, as it is the intersection's.
	Cost Cost
	// Strategy names the plan that ran: "blocks", "capacity-hash" or
	// "uniform-hash".
	Strategy string
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// Join computes R ⋈ S on the join key in one round. It prices three plans
// of that round on the instance and runs the cheapest: Algorithm 2's round
// (balanced partition + weighted in-block hashing; the smaller relation's
// key-groups are replicated across blocks), a hash weighted by each node's
// bandwidth capacity, and JoinBaseline's uniform hash, so it never costs
// more than JoinBaseline.
func (c *Cluster) Join(r, s [][]Row, seed uint64) (*JoinResult, error) {
	return c.joinWith(r, s, seed, join.Tree)
}

// JoinBaseline computes R ⋈ S with the topology-oblivious uniform hash
// join, for comparison.
func (c *Cluster) JoinBaseline(r, s [][]Row, seed uint64) (*JoinResult, error) {
	return c.joinWith(r, s, seed, join.UniformHash)
}

// joinProtocol is the entry point both join variants share.
type joinProtocol func(t *topology.Tree, r, s join.Placement, seed uint64, opts ...netsim.Option) (*join.Result, error)

// joinWith is the equi-join pipeline: the number of emitted pairs must
// equal the reference |R ⋈ S| and every sampled pair must be made of input
// tuples (join.Verify), and the cost is reported against Theorem 1 over
// the tuples' two words (JoinResult.Cost).
func (c *Cluster) joinWith(r, s [][]Row, seed uint64, run joinProtocol) (*JoinResult, error) {
	if err := c.checkPair(len(r), len(s)); err != nil {
		return nil, err
	}
	res, lb, err := verified(c, func(opts ...netsim.Option) (*join.Result, error) {
		return run(c.t, r, s, seed, opts...)
	}, func() (*join.Ref, float64) {
		loads := make(topology.Loads, c.t.NumNodes())
		for i, v := range c.t.ComputeNodes() {
			loads[v] = 2 * int64(len(r[i])+len(s[i]))
		}
		return join.Reference(r, s), lowerbound.Intersection(c.t, loads, 2*sizes(r), 2*sizes(s)).Value
	}, join.Verify)
	if err != nil {
		return nil, err
	}
	return &JoinResult{
		Pairs:        res.TotalPairs(),
		PairsPerNode: res.PerNode,
		Cost:         costOf(res.Report, lb),
		Strategy:     res.Strategy,
		Report:       res.Report,
	}, nil
}

// joinTask joins on the keys themselves: every key is a (Key=key,
// Payload=key) row.
func joinTask(run joinProtocol) func(*Cluster, TaskInput) (*TaskResult, error) {
	return func(c *Cluster, in TaskInput) (*TaskResult, error) {
		row := func(key uint64) Row { return Row{Key: key, Payload: key} }
		res, err := c.joinWith(decodeFrags(in.R, row), decodeFrags(in.S, row), in.Seed, run)
		if err != nil {
			return nil, err
		}
		return &TaskResult{
			Summary: fmt.Sprintf("|R|=%d |S|=%d pairs=%d strategy=%s", sizes(in.R), sizes(in.S), res.Pairs, res.Strategy),
			Cost:    res.Cost,
			Report:  res.Report,
		}, nil
	}
}
