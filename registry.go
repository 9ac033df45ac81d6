package topompc

import (
	"errors"
	"fmt"
	"sort"

	"topompc/internal/core/cartesian"
	"topompc/internal/core/intersect"
	"topompc/internal/core/join"
	"topompc/internal/core/sorting"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// TaskInput is the generic input to a registered task. Pair tasks
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

// TaskResult is the uniform outcome of a registry task: a one-line summary
// of the verified output plus the cost accounting.
type TaskResult struct {
	Summary string
	Cost    Cost
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// Task is a runnable protocol registered by name. Every Run executes the
// protocol on the cluster's exchange-plan runtime, verifies the output
// against a reference computation, and reports the cost next to the task's
// instance lower bound (0 when none is known).
type Task struct {
	Name        string
	Description string
	Kind        TaskKind
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

var taskRegistry = map[string]Task{}

// ErrDuplicateTask is returned by RegisterTask when a task name is already
// taken. The existing registration is left untouched — a later register
// never shadows an earlier one.
var ErrDuplicateTask = errors.New("topompc: duplicate task name")

// ErrEmptyTaskName is returned by RegisterTask for a task with no name.
var ErrEmptyTaskName = errors.New("topompc: task name must not be empty")

// RegisterTask adds a task to the registry. Duplicate names are rejected
// with ErrDuplicateTask (the first registration wins); empty names with
// ErrEmptyTaskName. The built-in tasks are registered at init time;
// callers may add their own.
func RegisterTask(t Task) error {
	if t.Name == "" {
		return ErrEmptyTaskName
	}
	if _, dup := taskRegistry[t.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTask, t.Name)
	}
	taskRegistry[t.Name] = t
	return nil
}

// mustRegister registers a built-in task, panicking on the programming
// error of a clashing built-in name.
func mustRegister(t Task) {
	if err := RegisterTask(t); err != nil {
		panic(err)
	}
}

// Tasks lists the registered tasks sorted by name.
func Tasks() []Task {
	out := make([]Task, 0, len(taskRegistry))
	for _, t := range taskRegistry {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupTask finds a task by name.
func LookupTask(name string) (Task, bool) {
	t, ok := taskRegistry[name]
	return t, ok
}

// RunTask executes the named task on the cluster.
func (c *Cluster) RunTask(name string, in TaskInput) (*TaskResult, error) {
	t, ok := LookupTask(name)
	if !ok {
		return nil, fmt.Errorf("topompc: unknown task %q (have %v)", name, taskNames())
	}
	return t.Run(c, in)
}

func taskNames() []string {
	names := make([]string, 0, len(taskRegistry))
	for _, t := range Tasks() {
		names = append(names, t.Name)
	}
	return names
}

func init() {
	mustRegister(Task{
		Name:        "intersect",
		Description: "set intersection R ∩ S with TreeIntersect (Algorithm 2)",
		Kind:        TaskPair,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.Intersect(in.R, in.S, in.Seed)
			if err != nil {
				return nil, err
			}
			return intersectResult(in, res)
		},
	})
	mustRegister(Task{
		Name:        "intersect-baseline",
		Description: "set intersection with the topology-oblivious uniform hash join",
		Kind:        TaskPair,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.IntersectBaseline(in.R, in.S, in.Seed)
			if err != nil {
				return nil, err
			}
			return intersectResult(in, res)
		},
	})
	mustRegister(Task{
		Name:           "cartesian",
		Description:    "cartesian product R × S (§4 protocols, chosen by topology and sizes)",
		Kind:           TaskPair,
		WantsEqualPair: true,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.CartesianProduct(in.R, in.S)
			if err != nil {
				return nil, err
			}
			// Full geometric verification: the rectangles cover the grid and
			// every node received exactly the rows/columns its rectangle
			// spans.
			err = cartesian.Verify(c.t, dataset.Placement(in.R), dataset.Placement(in.S),
				&cartesian.Result{Rects: res.Rects, RKeys: res.RPerNode, SKeys: res.SPerNode})
			if err != nil {
				return nil, err
			}
			var pairs int64
			for _, p := range res.PairsPerNode {
				pairs += p
			}
			return &TaskResult{
				Summary: fmt.Sprintf("|R|=%d |S|=%d pairs=%d strategy=%s", sizes(in.R), sizes(in.S), pairs, res.Strategy),
				Cost:    res.Cost,
				Report:  res.Report,
			}, nil
		},
	})
	mustRegister(Task{
		Name:        "sort",
		Description: "distributed sort with weighted TeraSort (§5.2)",
		Kind:        TaskSingle,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.Sort(in.Data, in.Seed)
			if err != nil {
				return nil, err
			}
			return sortResult(c, in, res)
		},
	})
	mustRegister(Task{
		Name:        "sort-aware",
		Description: "distributed sort with capacity-weighted splitters (key ranges shrink behind weak cuts)",
		Kind:        TaskSingle,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.SortAware(in.Data, in.Seed)
			if err != nil {
				return nil, err
			}
			return sortResult(c, in, res)
		},
	})
	mustRegister(Task{
		Name:        "sort-aware-flat",
		Description: "the identical splitter sort with uniform key ranges (flat baseline for sort-aware)",
		Kind:        TaskSingle,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.SortAwareBaseline(in.Data, in.Seed)
			if err != nil {
				return nil, err
			}
			return sortResult(c, in, res)
		},
	})
	mustRegister(Task{
		Name:        "sort-baseline",
		Description: "distributed sort with classic topology-oblivious TeraSort",
		Kind:        TaskSingle,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.SortBaseline(in.Data, in.Seed)
			if err != nil {
				return nil, err
			}
			return sortResult(c, in, res)
		},
	})
	mustRegister(Task{
		Name:        "join",
		Description: "binary equi-join R ⋈ S with balanced-partition routing",
		Kind:        TaskPair,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.Join(keysToRows(in.R), keysToRows(in.S), in.Seed)
			if err != nil {
				return nil, err
			}
			return joinResult(in, res)
		},
	})
	mustRegister(Task{
		Name:        "join-baseline",
		Description: "binary equi-join with the topology-oblivious uniform hash join",
		Kind:        TaskPair,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.JoinBaseline(keysToRows(in.R), keysToRows(in.S), in.Seed)
			if err != nil {
				return nil, err
			}
			return joinResult(in, res)
		},
	})
	mustRegister(Task{
		Name:            "aggregate",
		Description:     "group-by count with two-level (rack-combining) aggregation",
		Kind:            TaskSingle,
		WantsDuplicates: true,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.Aggregate(keysToGroups(in.Data), in.Seed)
			if err != nil {
				return nil, err
			}
			return aggregateResult(in, res)
		},
	})
	mustRegister(Task{
		Name:            "aggregate-baseline",
		Description:     "group-by count with single-round uniform hashing",
		Kind:            TaskSingle,
		WantsDuplicates: true,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.AggregateBaseline(keysToGroups(in.Data), in.Seed)
			if err != nil {
				return nil, err
			}
			return aggregateResult(in, res)
		},
	})
	mustRegister(Task{
		Name:            "agg-aware",
		Description:     "group-by count with combiner-tree aggregation (merge once per weak-cut block)",
		Kind:            TaskSingle,
		WantsDuplicates: true,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.AggregateAware(keysToGroups(in.Data), in.Seed)
			if err != nil {
				return nil, err
			}
			return aggregateResult(in, res)
		},
	})
	mustRegister(Task{
		Name:            "agg-aware-flat",
		Description:     "group-by count with single-round uniform hashing, no combining (flat baseline for agg-aware)",
		Kind:            TaskSingle,
		WantsDuplicates: true,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.AggregateAwareBaseline(keysToGroups(in.Data), in.Seed)
			if err != nil {
				return nil, err
			}
			return aggregateResult(in, res)
		},
	})
	mustRegister(Task{
		Name:            "agg-tree2",
		Description:     "group-by count with the recursive combiner tree (merge per weak-cut block per hierarchy level)",
		Kind:            TaskSingle,
		WantsDuplicates: true,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.AggregateMultiLevel(keysToGroups(in.Data), in.Seed)
			if err != nil {
				return nil, err
			}
			return aggregateResult(in, res)
		},
	})
	mustRegister(Task{
		Name:         "triangle",
		Description:  "triangle join R⋈S⋈T with the topology-aware HyperCube shuffle",
		Kind:         TaskMulti,
		NumRelations: 3,
		Cyclic:       true,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			r, s, t, err := triangleRels(in)
			if err != nil {
				return nil, err
			}
			res, err := c.TriangleJoin(r, s, t, in.Seed)
			if err != nil {
				return nil, err
			}
			return multijoinTaskResult("triangles", in, res)
		},
	})
	mustRegister(Task{
		Name:         "triangle-flat",
		Description:  "triangle join with flat (topology-oblivious) HyperCube",
		Kind:         TaskMulti,
		NumRelations: 3,
		Cyclic:       true,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			r, s, t, err := triangleRels(in)
			if err != nil {
				return nil, err
			}
			res, err := c.TriangleJoinBaseline(r, s, t, in.Seed)
			if err != nil {
				return nil, err
			}
			return multijoinTaskResult("triangles", in, res)
		},
	})
	mustRegister(Task{
		Name:         "starjoin",
		Description:  "k-way star join with capacity-weighted hashing",
		Kind:         TaskMulti,
		NumRelations: 4,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.StarJoin(decodeRels(in.Rels), in.Seed)
			if err != nil {
				return nil, err
			}
			return multijoinTaskResult("rows", in, res)
		},
	})
	mustRegister(Task{
		Name:         "starjoin-flat",
		Description:  "k-way star join with topology-oblivious uniform hashing",
		Kind:         TaskMulti,
		NumRelations: 4,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.StarJoinBaseline(decodeRels(in.Rels), in.Seed)
			if err != nil {
				return nil, err
			}
			return multijoinTaskResult("rows", in, res)
		},
	})
	mustRegister(Task{
		Name:        "cc",
		Description: "connected components with capacity-homed labels and per-cut combining",
		Kind:        TaskGraph,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.ConnectedComponents(decodeGraph(in.Data), in.Seed)
			if err != nil {
				return nil, err
			}
			return graphTaskResult(in, res)
		},
	})
	mustRegister(Task{
		Name:        "cc-fast",
		Description: "connected components by budgeted graph exponentiation (log-diameter phases)",
		Kind:        TaskGraph,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.ConnectedComponentsFast(decodeGraph(in.Data), in.Seed)
			if err != nil {
				return nil, err
			}
			return graphTaskResult(in, res)
		},
	})
	mustRegister(Task{
		Name:        "cc-flat",
		Description: "connected components with uniform homes and direct delivery (flat baseline)",
		Kind:        TaskGraph,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.ConnectedComponentsBaseline(decodeGraph(in.Data), in.Seed)
			if err != nil {
				return nil, err
			}
			return graphTaskResult(in, res)
		},
	})
	mustRegister(Task{
		Name:        "spanforest",
		Description: "spanning forest via witness-tracked label contraction",
		Kind:        TaskGraph,
		Run: func(c *Cluster, in TaskInput) (*TaskResult, error) {
			res, err := c.SpanningForest(decodeGraph(in.Data), in.Seed)
			if err != nil {
				return nil, err
			}
			return graphTaskResult(in, res)
		},
	})
}

func intersectResult(in TaskInput, res *IntersectResult) (*TaskResult, error) {
	err := intersect.Verify(dataset.Placement(in.R), dataset.Placement(in.S), &intersect.Result{Output: res.Keys})
	if err != nil {
		return nil, err
	}
	return &TaskResult{
		Summary: fmt.Sprintf("|R|=%d |S|=%d |R∩S|=%d", sizes(in.R), sizes(in.S), len(res.Keys)),
		Cost:    res.Cost,
		Report:  res.Report,
	}, nil
}

func sortResult(c *Cluster, in TaskInput, res *SortResult) (*TaskResult, error) {
	nodes := c.t.ComputeNodes()
	order := make([]topology.NodeID, len(res.NodeOrder))
	for j, i := range res.NodeOrder {
		order[j] = nodes[i]
	}
	err := sorting.Verify(c.t, dataset.Placement(in.Data), &sorting.Result{PerNode: res.PerNode, Order: order})
	if err != nil {
		return nil, err
	}
	return &TaskResult{
		Summary: fmt.Sprintf("N=%d nodes=%d", sizes(in.Data), len(res.PerNode)),
		Cost:    res.Cost,
		Report:  res.Report,
	}, nil
}

func joinResult(in TaskInput, res *JoinResult) (*TaskResult, error) {
	want := join.ReferenceSize(keyPlacement(in.R), keyPlacement(in.S))
	if res.Pairs != want {
		return nil, fmt.Errorf("join: %d pairs emitted, want %d", res.Pairs, want)
	}
	return &TaskResult{
		Summary: fmt.Sprintf("|R|=%d |S|=%d pairs=%d", sizes(in.R), sizes(in.S), res.Pairs),
		Cost:    res.Cost,
		Report:  res.Report,
	}, nil
}

func aggregateResult(in TaskInput, res *AggregateResult) (*TaskResult, error) {
	want := make(map[uint64]int64)
	for _, frag := range in.Data {
		for _, k := range frag {
			want[k]++
		}
	}
	if len(res.Totals) != len(want) {
		return nil, fmt.Errorf("aggregate: %d groups, want %d", len(res.Totals), len(want))
	}
	for g, v := range want {
		if res.Totals[g] != v {
			return nil, fmt.Errorf("aggregate: group %d total %d, want %d", g, res.Totals[g], v)
		}
	}
	return &TaskResult{
		Summary: fmt.Sprintf("records=%d groups=%d", sizes(in.Data), len(want)),
		Cost:    res.Cost,
		Report:  res.Report,
	}, nil
}

// decodeGraph unpacks Tuple2-encoded edge keys into graph edges.
func decodeGraph(frags [][]uint64) [][]GraphEdge {
	out := make([][]GraphEdge, len(frags))
	for i, frag := range frags {
		out[i] = make([]GraphEdge, len(frag))
		for j, key := range frag {
			t := DecodeTuple2(key)
			out[i][j] = GraphEdge{U: t.A, V: t.B}
		}
	}
	return out
}

// graphTaskResult summarizes a connectivity task. The Cluster methods have
// already verified the labeling (and forest) against the union-find
// reference.
func graphTaskResult(in TaskInput, res *ComponentsResult) (*TaskResult, error) {
	var verts int
	for _, m := range res.PerNode {
		verts += len(m)
	}
	summary := fmt.Sprintf("V=%d E=%d components=%d phases=%d strategy=%s",
		verts, sizes(in.Data), res.Components, res.Phases, res.Strategy)
	if res.Forest != nil {
		summary += fmt.Sprintf(" forest=%d", len(res.Forest))
	}
	return &TaskResult{
		Summary: summary,
		Cost:    res.Cost,
		Report:  res.Report,
	}, nil
}

func decodeRels(rels [][][]uint64) [][][]Tuple2 {
	out := make([][][]Tuple2, len(rels))
	for j, rel := range rels {
		out[j] = make([][]Tuple2, len(rel))
		for i, frag := range rel {
			out[j][i] = make([]Tuple2, len(frag))
			for k, key := range frag {
				out[j][i][k] = DecodeTuple2(key)
			}
		}
	}
	return out
}

func triangleRels(in TaskInput) (r, s, t [][]Tuple2, err error) {
	if len(in.Rels) != 3 {
		return nil, nil, nil, fmt.Errorf("triangle: needs exactly 3 relations, got %d", len(in.Rels))
	}
	rels := decodeRels(in.Rels)
	return rels[0], rels[1], rels[2], nil
}

// multijoinTaskResult summarizes a multiway join. The Cluster methods have
// already verified the output count and checksum against the reference
// evaluation.
func multijoinTaskResult(unit string, in TaskInput, res *MultijoinResult) (*TaskResult, error) {
	var total int64
	for _, rel := range in.Rels {
		total += sizes(rel)
	}
	return &TaskResult{
		Summary: fmt.Sprintf("k=%d N=%d %s=%d shares=%v", len(in.Rels), total, unit, res.Outputs, res.Shares),
		Cost:    res.Cost,
		Report:  res.Report,
	}, nil
}

func keysToRows(frags [][]uint64) [][]Row {
	out := make([][]Row, len(frags))
	for i, f := range frags {
		out[i] = make([]Row, len(f))
		for j, k := range f {
			out[i][j] = Row{Key: k, Payload: k}
		}
	}
	return out
}

func keysToGroups(frags [][]uint64) [][]GroupValue {
	out := make([][]GroupValue, len(frags))
	for i, f := range frags {
		out[i] = make([]GroupValue, len(f))
		for j, k := range f {
			out[i][j] = GroupValue{Group: k, Value: 1}
		}
	}
	return out
}

func keyPlacement(frags [][]uint64) join.Placement {
	out := make(join.Placement, len(frags))
	for i, f := range frags {
		out[i] = make([]join.Tuple, len(f))
		for j, k := range f {
			out[i][j] = join.Tuple{Key: k, Payload: k}
		}
	}
	return out
}
