package exper

import (
	"cmp"
	"errors"
	"fmt"
	"strings"

	"topompc"
	"topompc/internal/cliutil"
	"topompc/internal/core/aggregate"
	"topompc/internal/core/cartesian"
	"topompc/internal/core/graph"
	"topompc/internal/core/intersect"
	"topompc/internal/core/sorting"
	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// This file is the experiment driver: the one place a protocol execution is
// verified, set against its lower bound, repeated over trials, held to its
// table's claim and wrapped into a named error. Experiment bodies build
// inputs and rows; everything that decides whether a run was right or cheap
// enough happens here. A cell names the task it runs, and a task reaches its
// protocol one of two ways:
//
//   - through a typed Cluster method, for every protocol that is a row of the
//     task table (those tasks carry their row's name): the root package's
//     pipeline of that family verifies the output against the family's
//     reference and bounds it;
//   - in the explicit form, for the entry points only an experiment calls — an
//     ablation switch, a star-only or oblivious cartesian protocol, a gather —
//     and for the two tables that print a protocol path the typed results do
//     not carry: the same Reference / Verify / bound, spelled out once per
//     family in task.execute, at the end of this file.

// input is what a task runs on; each family reads its own fields.
type input struct {
	r, s    dataset.Placement   // the pair tasks; sorting reads r
	records aggregate.Placement // aggregation
	rows    [2][][]topompc.Row  // the equi-join's R and S
	rels    []relation          // the multiway joins
	edges   graph.Placement     // connectivity
}

// relation is one two-attribute relation over the compute nodes.
type relation = [][]topompc.Tuple2

// measure is what one verified, bounded protocol run leaves for a table row.
type measure struct {
	Rounds      int
	Cost, Bound float64
	// Strategy is the protocol path, for the families that report one.
	Strategy string
	// Outputs is the size of the verified output: join pairs, multiway-join
	// rows, aggregation groups, connected components.
	Outputs int64
	// Vertices and Phases describe a connectivity run; Blocks is the size of
	// TreeIntersect's balanced partition.
	Vertices, Phases, Blocks int
}

// Ratio is cost over lower bound.
func (m measure) Ratio() float64 { return ratio(m.Cost, m.Bound) }

// ratio is a/b with the engine's conventions (1 when both are zero, +Inf over
// zero): the one way an experiment divides two costs or two round counts.
func ratio(a, b float64) float64 { return netsim.Ratio(a, b) }

// task is one protocol, runnable on an input. run returns the result of a
// typed Cluster method or of a protocol's own entry point; execute makes the
// cell's measure of either.
type task struct {
	name string
	run  func(t *topology.Tree, in input, seed uint64) (any, error)
	// unequalBound sets a cartesian protocol's own result against the
	// unequal-size bound of §4.5 (the cut on the smaller relation, and on a
	// star Theorem 9's coverage term when larger) instead of Theorems 3+4.
	unequalBound bool
}

// Ceiling is a claim about a cell: at most this many rounds, at most this
// cost/bound ratio, at most this cost. A zero field claims nothing.
type Ceiling struct {
	Rounds      int
	Ratio, Cost float64
}

// cell is one task execution into a table, repeated over trials.
type cell struct {
	// name says which cell failed: topology/placement, or the row label.
	name string
	tree *topology.Tree
	task task
	// in makes the trial's input; trial k runs with seed+k. trials is how
	// often (0 means once); the trial with the worst ratio is kept.
	in     func(trial int) (input, error)
	seed   uint64
	trials int
	// ceiling overrides, field by field, what the table claims.
	ceiling Ceiling
}

// ErrClaim is returned, wrapped with the table and the cell, when a run is
// verified but does not bear out what its table claims.
var ErrClaim = errors.New("the table's claim does not hold")

// A table keeps the first failure of a cell run into it or of a claim made of
// it (Table.err); after one, run and each do nothing and return zero measures,
// so an experiment fills its tables without a check per cell and ends with
// finish, which returns the failure instead of the tables.

// fail records an experiment's first failure.
func (t *Table) fail(err error) {
	if t.err == nil {
		id, _, _ := strings.Cut(t.Title, ":")
		t.err = fmt.Errorf("%s %w", id, err)
	}
}

// holds fails the table with the named error unless the claim is true.
func (t *Table) holds(ok bool, format string, args ...any) {
	if !ok {
		t.fail(fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrClaim))
	}
}

// finish returns an experiment's tables, or the first failure among them.
func finish(tables ...Table) ([]Table, error) {
	for _, t := range tables {
		if t.err != nil {
			return nil, t.err
		}
	}
	return tables, nil
}

// run executes a cell: every trial's input is made, the task runs on it —
// verified and bounded — and is held to the ceiling of the table or the
// cell's own; the trial with the worst ratio is returned.
func (t *Table) run(c cell) measure {
	lim := Ceiling{
		Rounds: cmp.Or(c.ceiling.Rounds, t.Ceiling.Rounds),
		Ratio:  cmp.Or(c.ceiling.Ratio, t.Ceiling.Ratio),
		Cost:   cmp.Or(c.ceiling.Cost, t.Ceiling.Cost),
	}
	name := c.name + "/" + c.task.name
	var worst measure
	for trial := 0; trial < max(c.trials, 1) && t.err == nil; trial++ {
		in, err := c.in(trial)
		var m measure
		if err == nil {
			m, err = c.task.execute(c.tree, in, c.seed+uint64(trial))
		}
		if err != nil {
			t.fail(fmt.Errorf("%s: %w", name, err))
			break
		}
		t.holds(lim.Rounds == 0 || m.Rounds <= lim.Rounds, "%s: %d rounds, ceiling %d", name, m.Rounds, lim.Rounds)
		t.holds(lim.Ratio == 0 || m.Ratio() <= lim.Ratio, "%s: ratio %.3f, ceiling %.3f", name, m.Ratio(), lim.Ratio)
		t.holds(lim.Cost == 0 || m.Cost <= lim.Cost, "%s: cost %.1f, ceiling %.1f", name, m.Cost, lim.Cost)
		if trial == 0 || m.Ratio() > worst.Ratio() {
			worst = m
		}
	}
	if t.err != nil {
		return measure{}
	}
	return worst
}

// each makes one input and runs several tasks on it, one cell apiece; it
// returns their measures in order.
func (t *Table) each(row string, tree *topology.Tree, seed uint64, in func(int) (input, error), tasks ...task) []measure {
	out := make([]measure, len(tasks))
	if t.err != nil {
		return out
	}
	made, err := in(0)
	for i, task := range tasks {
		out[i] = t.run(cell{name: row, tree: tree, task: task, seed: seed, in: func(int) (input, error) { return made, err }})
	}
	return out
}

// ready is an input already made.
func ready(in input) func(int) (input, error) {
	return func(int) (input, error) { return in, nil }
}

// tally fills a one-row property table — how many random instances, how many
// violated the property — and fails it unless none did.
func (t *Table) tally(instances, violations int) {
	t.AddRow(instances, violations)
	t.holds(violations == 0, "%d of %d instances violate the property", violations, instances)
}

// The notes of X3 and X5 cite their bound by its Go name; the names live here,
// next to the only code that calls the bounds.
const (
	multijoinBoundName = "lowerbound.Multijoin"
	spanningBoundName  = "lowerbound.Spanning"
)

// on wraps a tree for a typed call.
func on(t *topology.Tree) *topompc.Cluster { return topompc.NewCluster(t) }

// The rows of the task table the experiments run, each through its typed
// Cluster method.
var (
	intersectTask     = task{name: "intersect", run: func(t *topology.Tree, in input, seed uint64) (any, error) { return on(t).Intersect(in.r, in.s, seed) }}
	intersectBaseline = task{name: "intersect-baseline", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return on(t).IntersectBaseline(in.r, in.s, seed)
	}}
	cartesianTask     = task{name: "cartesian", run: func(t *topology.Tree, in input, _ uint64) (any, error) { return on(t).CartesianProduct(in.r, in.s) }}
	sortTask          = task{name: "sort", run: func(t *topology.Tree, in input, seed uint64) (any, error) { return on(t).Sort(in.r, seed) }}
	sortBaseline      = task{name: "sort-baseline", run: func(t *topology.Tree, in input, seed uint64) (any, error) { return on(t).SortBaseline(in.r, seed) }}
	sortAware         = task{name: "sort-aware", run: func(t *topology.Tree, in input, seed uint64) (any, error) { return on(t).SortAware(in.r, seed) }}
	sortAwareFlat     = task{name: "sort-aware-flat", run: func(t *topology.Tree, in input, seed uint64) (any, error) { return on(t).SortAwareBaseline(in.r, seed) }}
	aggregateTask     = task{name: "aggregate", run: func(t *topology.Tree, in input, seed uint64) (any, error) { return on(t).Aggregate(in.records, seed) }}
	aggregateBaseline = task{name: "aggregate-baseline", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return on(t).AggregateBaseline(in.records, seed)
	}}
	// The combiner trees and flat hashing have no Cluster method: these
	// call the entry points, as gatherTask does, and execute verifies and
	// bounds what they return.
	aggTree2 = task{name: "agg-tree2", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return aggregate.CombinerTree(t, in.records, seed)
	}}
	aggSingle = task{name: "combiner-tree-single", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return aggregate.CombinerTreeSingle(t, in.records, seed)
	}}
	aggAwareFlat = task{name: "agg-aware-flat", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return aggregate.HashFlat(t, in.records, seed)
	}}
	joinTask = task{name: "join", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return on(t).Join(in.rows[0], in.rows[1], seed)
	}}
	joinBaseline = task{name: "join-baseline", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return on(t).JoinBaseline(in.rows[0], in.rows[1], seed)
	}}
	starJoin     = task{name: "starjoin", run: func(t *topology.Tree, in input, seed uint64) (any, error) { return on(t).StarJoin(in.rels, seed) }}
	starJoinFlat = task{name: "starjoin-flat", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return on(t).StarJoinBaseline(in.rels, seed)
	}}
	triangleTask = task{name: "triangle", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return on(t).TriangleJoin(in.rels[0], in.rels[1], in.rels[2], seed)
	}}
	triangleFlat = task{name: "triangle-flat", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return on(t).TriangleJoinBaseline(in.rels[0], in.rels[1], in.rels[2], seed)
	}}
	ccTask = task{name: "cc", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return on(t).ConnectedComponents(in.edges, seed)
	}}
	ccFlat = task{name: "cc-flat", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		return on(t).ConnectedComponentsBaseline(in.edges, seed)
	}}
)

// execute runs the task and turns what it returned into the cell's measure. A
// typed result is already verified and bounded by its family's pipeline, so
// its arm reads the cost and what else a table prints of it. A protocol's own
// result is the explicit form: its arm verifies it against the family's
// reference and bounds it here.
func (k task) execute(t *topology.Tree, in input, seed uint64) (measure, error) {
	res, err := k.run(t, in, seed)
	if err != nil {
		return measure{}, err
	}
	costed := func(c topompc.Cost) measure { return measure{Rounds: c.Rounds, Cost: c.Cost, Bound: c.LowerBound} }
	reported := func(rep *netsim.Report, bound float64) measure {
		return measure{Rounds: rep.NumRounds(), Cost: rep.TotalCost(), Bound: bound}
	}
	var m measure
	switch res := res.(type) {
	case *topompc.IntersectResult:
		m = costed(res.Cost)
	case *topompc.SortResult:
		m = costed(res.Cost)
		m.Strategy = res.Strategy
	case *topompc.AggregateResult:
		m = costed(res.Cost)
		m.Strategy, m.Outputs = res.Strategy, int64(len(res.Totals))
	case *topompc.CartesianResult:
		m = costed(res.Cost)
		m.Strategy = res.Strategy
	case *topompc.JoinResult:
		m = costed(res.Cost)
		m.Strategy, m.Outputs = res.Strategy, res.Pairs
	case *topompc.MultijoinResult:
		m = costed(res.Cost)
		m.Outputs = res.Outputs
	case *topompc.ComponentsResult:
		m = costed(res.Cost)
		m.Strategy, m.Outputs, m.Phases = res.Strategy, res.Components, res.Phases
		for _, labels := range res.PerNode {
			m.Vertices += len(labels)
		}
	case *intersect.Result:
		err = intersect.Verify(intersect.Reference(in.r, in.s), res)
		m = reported(res.Report, lowerbound.Intersection(t, cliutil.Loads(t, in.r, in.s), int64(in.r.Total()), int64(in.s.Total())).Value)
		m.Blocks = len(res.Blocks)
	case *cartesian.Result:
		err = cartesian.Verify(in.r, in.s, res)
		bound := lowerbound.Cartesian(t, cliutil.Loads(t, in.r, in.s)).Value
		if k.unequalBound {
			bound = lowerbound.UnequalCartesian(t, cliutil.Loads(t, in.r), cliutil.Loads(t, in.s))
		}
		m = reported(res.Report, bound)
		m.Strategy = res.Strategy
	case *sorting.Result:
		err = sorting.Verify(t, sorting.Reference(in.r), res)
		m = reported(res.Report, lowerbound.Sorting(t, cliutil.Loads(t, in.r)).Value)
		m.Strategy = res.Strategy
	case *aggregate.Result:
		ref := aggregate.Reference(in.records)
		err = aggregate.Verify(ref, res)
		m = reported(res.Report, aggregate.LowerBound(t, in.records))
		m.Strategy, m.Outputs = res.Strategy, int64(len(ref))
	default:
		err = fmt.Errorf("no measure for a %T", res)
	}
	return m, err
}
