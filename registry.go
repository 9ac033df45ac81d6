package topompc

import (
	"fmt"
	"slices"
	"strings"

	"topompc/internal/core/aggregate"
	"topompc/internal/core/graph"
	"topompc/internal/core/intersect"
	"topompc/internal/core/join"
	"topompc/internal/core/multijoin"
	"topompc/internal/core/sorting"
	"topompc/internal/netsim"
)

// TaskInput is the generic input to a task of the table. Pair tasks
// (intersect, cartesian, join) consume R and S; single-relation tasks
// (sort, aggregate) consume Data; multi-relation tasks (triangle, star
// join) consume Rels. All fragments are indexed in compute-node order,
// like the typed Cluster methods.
//
// Tasks over typed records derive them from the keys deterministically:
// join treats each key as a (Key, Payload=Key) row, aggregate treats each
// key as a (Group=Key, Value=1) record (so aggregate totals are group
// multiplicities), and the multiway joins unpack each key into a Tuple2 as
// (A, B) = (key>>32, key&0xffffffff).
type TaskInput struct {
	R, S [][]uint64
	Data [][]uint64
	// Rels holds the relations of a multi-relation task: Rels[j][i] is the
	// fragment of relation j at compute node i, keys encoding Tuple2s.
	Rels [][][]uint64
	Seed uint64
}

// TaskKind says which TaskInput fields a task consumes.
type TaskKind int

const (
	// TaskPair tasks consume TaskInput.R and TaskInput.S.
	TaskPair TaskKind = iota
	// TaskSingle tasks consume TaskInput.Data.
	TaskSingle
	// TaskMulti tasks consume TaskInput.Rels.
	TaskMulti
	// TaskGraph tasks consume TaskInput.Data as packed undirected graph
	// edges, one edge per key encoded as EncodeTuple2({u, v}).
	TaskGraph
)

// EncodeTuple2 packs a Tuple2 into one registry key; attributes must fit
// in 32 bits.
func EncodeTuple2(t Tuple2) uint64 { return t.A<<32 | t.B&0xffffffff }

// DecodeTuple2 unpacks a registry key into a Tuple2.
func DecodeTuple2(key uint64) Tuple2 { return Tuple2{A: key >> 32, B: key & 0xffffffff} }

// decodeFrags turns key fragments into typed record fragments, one record
// per key. A task decodes its input once; the pipelines take it from there
// without further copies.
func decodeFrags[T any](frags [][]uint64, f func(uint64) T) [][]T {
	out := make([][]T, len(frags))
	for i, frag := range frags {
		out[i] = make([]T, len(frag))
		for j, key := range frag {
			out[i][j] = f(key)
		}
	}
	return out
}

// TaskResult is the uniform outcome of a task run by name: a one-line
// summary of the verified output plus the cost accounting.
type TaskResult struct {
	Summary string
	Cost    Cost
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// Task is one row of the task table: a protocol runnable by name. Run hands
// the decoded input and the row's protocol entry point to the family's
// pipeline — the same one the typed Cluster method uses — which executes it
// on the cluster's exchange-plan runtime, verifies the output against the
// family's reference, and reports the cost next to the task's instance
// lower bound (0 when none is known).
type Task struct {
	Name        string
	Description string
	Kind        TaskKind
	// Baseline names the topology-oblivious task this one is measured
	// against on the same input; empty on the baselines themselves and on
	// tasks that have none.
	Baseline string
	// WantsEqualPair marks pair tasks whose default protocol requires
	// |R| = |S| on general trees (cartesian); drivers use it to size
	// generated inputs.
	WantsEqualPair bool
	// WantsDuplicates marks tasks whose instances are only interesting
	// when keys repeat (aggregate: every group distinct means a zero lower
	// bound); drivers should generate low-cardinality data.
	WantsDuplicates bool
	// NumRelations is how many relations a TaskMulti task consumes (0
	// lets the driver choose; the triangle shape is fixed at 3).
	NumRelations int
	// Cyclic marks TaskMulti tasks with a cyclic join graph (triangle):
	// drivers must generate relations whose attribute pairs chain
	// R(a,b), S(b,c), T(c,a) over a shared domain.
	Cyclic bool
	Run    func(c *Cluster, in TaskInput) (*TaskResult, error)
}

// tasks is the task table, ascending by name (LookupTask searches it).
var tasks = []Task{
	{Name: "agg-aware", Kind: TaskSingle, WantsDuplicates: true, Baseline: "agg-aware-flat", Run: aggregateTask(aggregate.CombinerTreeSingle),
		Description: "group-by count with combiner-tree aggregation (merge once per weak-cut block)"},
	{Name: "agg-aware-flat", Kind: TaskSingle, WantsDuplicates: true, Run: aggregateTask(aggregate.HashFlat),
		Description: "group-by count with single-round uniform hashing, no combining (flat baseline for agg-aware)"},
	{Name: "agg-tree2", Kind: TaskSingle, WantsDuplicates: true, Baseline: "agg-aware-flat", Run: aggregateTask(aggregate.CombinerTree),
		Description: "group-by count with the recursive combiner tree (merge per weak-cut block per hierarchy level)"},
	{Name: "aggregate", Kind: TaskSingle, WantsDuplicates: true, Baseline: "aggregate-baseline", Run: aggregateTask(aggregate.TwoLevel),
		Description: "group-by count with two-level (rack-combining) aggregation"},
	{Name: "aggregate-baseline", Kind: TaskSingle, WantsDuplicates: true, Run: aggregateTask(aggregate.Hash),
		Description: "group-by count with single-round uniform hashing"},
	{Name: "cartesian", Kind: TaskPair, WantsEqualPair: true, Run: cartesianTask,
		Description: "cartesian product R × S (§4 protocols, chosen by topology and sizes)"},
	{Name: "cc", Kind: TaskGraph, Baseline: "cc-flat", Run: graphTask(graph.CC),
		Description: "connected components with capacity-homed labels and per-cut combining"},
	{Name: "cc-fast", Kind: TaskGraph, Run: graphTask(graph.CCFast),
		Description: "connected components by budgeted graph exponentiation (log-diameter phases)"},
	{Name: "cc-flat", Kind: TaskGraph, Run: graphTask(graph.CCFlat),
		Description: "connected components with uniform homes and direct delivery (flat baseline)"},
	{Name: "intersect", Kind: TaskPair, Baseline: "intersect-baseline", Run: intersectTask(intersect.Tree),
		Description: "set intersection R ∩ S with TreeIntersect (Algorithm 2)"},
	{Name: "intersect-baseline", Kind: TaskPair, Run: intersectTask(intersect.UniformHash),
		Description: "set intersection with the topology-oblivious uniform hash join"},
	{Name: "join", Kind: TaskPair, Baseline: "join-baseline", Run: joinTask(join.Tree),
		Description: "planned equi-join R ⋈ S: prices Algorithm 2's block round, a capacity hash and a uniform hash, runs the cheapest"},
	{Name: "join-baseline", Kind: TaskPair, Run: joinTask(join.UniformHash),
		Description: "binary equi-join with the topology-oblivious uniform hash join"},
	{Name: "sort", Kind: TaskSingle, Baseline: "sort-baseline", Run: sortTask(sorting.WTS),
		Description: "planned sort: prices weighted TeraSort (§5.2) and a gather, runs the cheaper"},
	{Name: "sort-aware", Kind: TaskSingle, Baseline: "sort-aware-flat", Run: sortTask(sorting.CapacitySort),
		Description: "planned sort: prices capacity splitters, uniform splitters, a gather and wTS, runs the cheapest"},
	{Name: "sort-aware-flat", Kind: TaskSingle, Run: sortTask(sorting.CapacitySortFlat),
		Description: "splitter sort with uniform key ranges (flat baseline for sort-aware)"},
	{Name: "sort-baseline", Kind: TaskSingle, Run: sortTask(sorting.TeraSort),
		Description: "distributed sort with classic topology-oblivious TeraSort"},
	{Name: "spanforest", Kind: TaskGraph, Run: graphTask(graph.SpanningForest),
		Description: "spanning forest via witness-tracked label contraction"},
	{Name: "starjoin", Kind: TaskMulti, NumRelations: 4, Baseline: "starjoin-flat", Run: multijoinTask("rows", starShape(multijoin.Star)),
		Description: "k-way star join with capacity-weighted hashing"},
	{Name: "starjoin-flat", Kind: TaskMulti, NumRelations: 4, Run: multijoinTask("rows", starShape(multijoin.StarFlat)),
		Description: "k-way star join with topology-oblivious uniform hashing"},
	{Name: "triangle", Kind: TaskMulti, NumRelations: 3, Cyclic: true, Baseline: "triangle-flat", Run: multijoinTask("triangles", triangleShape(multijoin.Triangle)),
		Description: "triangle join R⋈S⋈T with the topology-aware HyperCube shuffle"},
	{Name: "triangle-flat", Kind: TaskMulti, NumRelations: 3, Cyclic: true, Run: multijoinTask("triangles", triangleShape(multijoin.TriangleFlat)),
		Description: "triangle join with flat (topology-oblivious) HyperCube"},
}

// Tasks lists the task table, sorted by name.
func Tasks() []Task { return slices.Clone(tasks) }

// LookupTask finds a task by name.
func LookupTask(name string) (Task, bool) {
	i, ok := slices.BinarySearchFunc(tasks, name, func(t Task, name string) int { return strings.Compare(t.Name, name) })
	if !ok {
		return Task{}, false
	}
	return tasks[i], true
}

// RunTask executes the named task on the cluster.
func (c *Cluster) RunTask(name string, in TaskInput) (*TaskResult, error) {
	t, ok := LookupTask(name)
	if !ok {
		names := make([]string, len(tasks))
		for i, t := range tasks {
			names[i] = t.Name
		}
		return nil, fmt.Errorf("topompc: unknown task %q (have %v)", name, names)
	}
	return t.Run(c, in)
}
