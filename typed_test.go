package topompc_test

import (
	"reflect"
	"testing"

	"topompc"
	"topompc/internal/netsim"
)

// typedInput is a TaskInput together with the typed records the matching
// Cluster method takes, decoded the way the task table documents.
type typedInput struct {
	in     topompc.TaskInput
	r, s   [][]topompc.Row
	groups [][]topompc.GroupValue
	rels   [][][]topompc.Tuple2
	edges  [][]topompc.GraphEdge
}

func mapFrags[T any](frags [][]uint64, f func(uint64) T) [][]T {
	out := make([][]T, len(frags))
	for i, frag := range frags {
		for _, k := range frag {
			out[i] = append(out[i], f(k))
		}
	}
	return out
}

func decodeTyped(in topompc.TaskInput) typedInput {
	row := func(k uint64) topompc.Row { return topompc.Row{Key: k, Payload: k} }
	ti := typedInput{
		in:     in,
		r:      mapFrags(in.R, row),
		s:      mapFrags(in.S, row),
		groups: mapFrags(in.Data, func(k uint64) topompc.GroupValue { return topompc.GroupValue{Group: k, Value: 1} }),
		edges:  mapFrags(in.Data, func(k uint64) topompc.GraphEdge { return topompc.GraphEdge{U: k >> 32, V: k & 0xffffffff} }),
	}
	for _, rel := range in.Rels {
		ti.rels = append(ti.rels, mapFrags(rel, topompc.DecodeTuple2))
	}
	return ti
}

type typedOutcome struct {
	cost   topompc.Cost
	report *netsim.Report
}

// outcome reads the Cost and Report fields every typed result struct has.
func outcome(res any, err error) (typedOutcome, error) {
	if err != nil {
		return typedOutcome{}, err
	}
	v := reflect.ValueOf(res).Elem()
	return typedOutcome{
		cost:   v.FieldByName("Cost").Interface().(topompc.Cost),
		report: v.FieldByName("Report").Interface().(*netsim.Report),
	}, nil
}

// typedCalls maps every row of the task table to the typed Cluster method
// that runs the same protocol.
var typedCalls = map[string]func(c *topompc.Cluster, ti typedInput) (typedOutcome, error){
	"intersect": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.Intersect(ti.in.R, ti.in.S, ti.in.Seed))
	},
	"intersect-baseline": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.IntersectBaseline(ti.in.R, ti.in.S, ti.in.Seed))
	},
	"cartesian": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.CartesianProduct(ti.in.R, ti.in.S))
	},
	"sort": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.Sort(ti.in.Data, ti.in.Seed))
	},
	"sort-baseline": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.SortBaseline(ti.in.Data, ti.in.Seed))
	},
	"sort-aware": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.SortAware(ti.in.Data, ti.in.Seed))
	},
	"sort-aware-flat": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.SortAwareBaseline(ti.in.Data, ti.in.Seed))
	},
	"join": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.Join(ti.r, ti.s, ti.in.Seed))
	},
	"join-baseline": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.JoinBaseline(ti.r, ti.s, ti.in.Seed))
	},
	"aggregate": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.Aggregate(ti.groups, ti.in.Seed))
	},
	"aggregate-baseline": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.AggregateBaseline(ti.groups, ti.in.Seed))
	},
	"agg-aware": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.AggregateAware(ti.groups, ti.in.Seed))
	},
	"agg-aware-flat": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.AggregateAwareBaseline(ti.groups, ti.in.Seed))
	},
	"agg-tree2": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.AggregateMultiLevel(ti.groups, ti.in.Seed))
	},
	"triangle": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.TriangleJoin(ti.rels[0], ti.rels[1], ti.rels[2], ti.in.Seed))
	},
	"triangle-flat": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.TriangleJoinBaseline(ti.rels[0], ti.rels[1], ti.rels[2], ti.in.Seed))
	},
	"starjoin": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.StarJoin(ti.rels, ti.in.Seed))
	},
	"starjoin-flat": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.StarJoinBaseline(ti.rels, ti.in.Seed))
	},
	"cc": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.ConnectedComponents(ti.edges, ti.in.Seed))
	},
	"cc-fast": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.ConnectedComponentsFast(ti.edges, ti.in.Seed))
	},
	"cc-flat": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.ConnectedComponentsBaseline(ti.edges, ti.in.Seed))
	},
	"spanforest": func(c *topompc.Cluster, ti typedInput) (typedOutcome, error) {
		return outcome(c.SpanningForest(ti.edges, ti.in.Seed))
	},
}

const typedTopo = "twotier-skew"

// TestTypedMethodMatchesTask: a table row and its typed Cluster method hand
// the same protocol to the same pipeline, so on one input they must agree
// on the Cost and on every statistic of the Report.
func TestTypedMethodMatchesTask(t *testing.T) {
	if len(typedCalls) != len(topompc.Tasks()) {
		t.Fatalf("typedCalls covers %d tasks, the table has %d", len(typedCalls), len(topompc.Tasks()))
	}
	for _, spec := range topompc.Tasks() {
		t.Run(spec.Name, func(t *testing.T) {
			call, ok := typedCalls[spec.Name]
			if !ok {
				t.Fatal("no typed method listed for this row")
			}
			c := fixtureCluster(t, typedTopo)
			in := fixtureInput(t, spec, c, typedTopo, "zipf", 2000)
			task, err := c.RunTask(spec.Name, in)
			if err != nil {
				t.Fatal(err)
			}
			typed, err := call(c, decodeTyped(in))
			if err != nil {
				t.Fatal(err)
			}
			if typed.cost != task.Cost {
				t.Errorf("cost: typed %+v, task %+v", typed.cost, task.Cost)
			}
			if a, b := serializeReport(typed.report), serializeReport(task.Report); a != b {
				t.Errorf("report diverged between typed method and task:\n%s", firstDiff(a, b))
			}
		})
	}
}

// TestTypedCallsLeaveInputsUntouched: the record types are aliases of the
// protocol packages' own, so the caller's fragments are handed to the
// protocols as they are, not copied, and with more than one worker the
// pipeline reads them for the reference and the bound while the protocol
// runs. No row's protocol may write to them, at one worker or at four (where
// the race detector sees a write the comparison would miss).
func TestTypedCallsLeaveInputsUntouched(t *testing.T) {
	for _, spec := range topompc.Tasks() {
		t.Run(spec.Name, func(t *testing.T) {
			c := fixtureCluster(t, typedTopo)
			ti := decodeTyped(fixtureInput(t, spec, c, typedTopo, "zipf", 2000))
			before := decodeTyped(fixtureInput(t, spec, c, typedTopo, "zipf", 2000))
			for _, workers := range []int{1, 4} {
				c.SetExecOptions(topompc.ExecOptions{Workers: workers})
				if _, err := typedCalls[spec.Name](c, ti); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ti, before) {
					t.Fatalf("workers=%d: the call modified its input fragments", workers)
				}
			}
		})
	}
}
