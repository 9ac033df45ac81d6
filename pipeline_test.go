package topompc

import (
	"errors"
	"testing"

	"topompc/internal/core/aggregate"
	"topompc/internal/core/cartesian"
	"topompc/internal/core/graph"
	"topompc/internal/core/intersect"
	"topompc/internal/core/join"
	"topompc/internal/core/multijoin"
	"topompc/internal/core/sorting"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// fault is what a wrapped protocol does to a run: nothing, corrupt the
// result it returns, or fail outright.
type fault int

const (
	honest fault = iota
	corrupt
	fail
)

var errProtocolDown = errors.New("protocol down")

// tampered passes a protocol's result on under the given fault, so one
// wrapper serves as the honest control and as both faulty protocols; corrupt
// applies f to the result.
func tampered[R any](how fault, res *R, err error, f func(*R)) (*R, error) {
	switch {
	case how == fail:
		return nil, errProtocolDown
	case how == corrupt && err == nil:
		f(res)
	}
	return res, err
}

// nonEmpty returns the first want indices i < p with n(i) > 0.
func nonEmpty(t *testing.T, want, p int, n func(i int) int) []int {
	t.Helper()
	var idx []int
	for i := 0; i < p && len(idx) < want; i++ {
		if n(i) > 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) < want {
		t.Fatalf("fixture leaves %d nodes with output, need %d", len(idx), want)
	}
	return idx
}

type taskRun = func(*Cluster, TaskInput) (*TaskResult, error)

// TestPipelinesRejectWrongOutput hands every family's pipeline — through
// the adapter the task table uses — a protocol that wraps a real one and
// corrupts its result. The run must return an error and no result; with the
// corruption switched off the same wrapper must pass, so it is the
// pipeline's verification step that fires. A wrapped protocol that fails
// must hand its own error through, again with no result. All of it holds
// with one worker, where the pipeline runs, verifies and bounds in turn, and
// with four, where the reference and the bound are computed beside the run
// (internal/par tests the protocol that fails while they still are).
func TestPipelinesRejectWrongOutput(t *testing.T) {
	graphRun := func(real graphProtocol, how fault, f func(*graph.Result)) taskRun {
		return graphTask(func(tr *topology.Tree, edges graph.Placement, seed uint64, o ...netsim.Option) (*graph.Result, error) {
			res, err := real(tr, edges, seed, o...)
			return tampered(how, res, err, f)
		})
	}
	cases := []struct {
		name, input string // input: the table row whose input shape is generated
		task        func(t *testing.T, how fault) taskRun
	}{
		{"intersect/key-dropped", "intersect", func(t *testing.T, how fault) taskRun {
			return intersectTask(func(tr *topology.Tree, r, s dataset.Placement, seed uint64, o ...netsim.Option) (*intersect.Result, error) {
				res, err := intersect.Tree(tr, r, s, seed, o...)
				return tampered(how, res, err, func(res *intersect.Result) { res.Output = res.Output[1:] })
			})
		}},
		// CartesianProduct picks its own protocol, so this case enters the
		// pipeline one step later, at cartesianWith.
		{"cartesian/row-dropped", "cartesian", func(t *testing.T, how fault) taskRun {
			return func(c *Cluster, in TaskInput) (*TaskResult, error) {
				real, lb := c.cartesianCase(c.loads(in.R, in.S), sizes(in.R), sizes(in.S))
				res, err := c.cartesianWith(in.R, in.S, func(tr *topology.Tree, r, s dataset.Placement, o ...netsim.Option) (*cartesian.Result, error) {
					res, err := real(tr, r, s, o...)
					return tampered(how, res, err, func(res *cartesian.Result) {
						i := nonEmpty(t, 1, len(res.RKeys), func(i int) int { return len(res.RKeys[i]) })[0]
						res.RKeys[i] = res.RKeys[i][1:]
					})
				}, lb)
				if err != nil {
					return nil, err
				}
				return &TaskResult{Cost: res.Cost, Report: res.Report}, nil
			}
		}},
		{"sort/keys-swapped-across-nodes", "sort", func(t *testing.T, how fault) taskRun {
			return sortTask(func(tr *topology.Tree, data dataset.Placement, seed uint64, o ...netsim.Option) (*sorting.Result, error) {
				// Unpriced, so that the output spans the heavy nodes: the
				// planned sort may gather it all on one.
				res, err := sorting.WTSUnpriced(tr, data, seed, sorting.ProportionalLight, o...)
				if err == nil && res.Strategy != "wts" {
					t.Fatalf("strategy = %s, want wts", res.Strategy)
				}
				return tampered(how, res, err, func(res *sorting.Result) {
					ij := nonEmpty(t, 2, len(res.PerNode), func(i int) int { return len(res.PerNode[i]) })
					i, j := ij[0], ij[1]
					res.PerNode[i][0], res.PerNode[j][0] = res.PerNode[j][0], res.PerNode[i][0]
				})
			})
		}},
		{"join/pair-count-off-by-one", "join", func(t *testing.T, how fault) taskRun {
			return joinTask(func(tr *topology.Tree, r, s join.Placement, seed uint64, o ...netsim.Option) (*join.Result, error) {
				res, err := join.Tree(tr, r, s, seed, o...)
				return tampered(how, res, err, func(res *join.Result) { res.PerNode[0]++ })
			})
		}},
		// The pair count stays right; only join.Verify's sample check sees a
		// sampled pair whose S payload is in neither relation.
		{"join/sampled-pair-fabricated", "join", func(t *testing.T, how fault) taskRun {
			return joinTask(func(tr *topology.Tree, r, s join.Placement, seed uint64, o ...netsim.Option) (*join.Result, error) {
				res, err := join.Tree(tr, r, s, seed, o...)
				return tampered(how, res, err, func(res *join.Result) {
					i := nonEmpty(t, 1, len(res.Sample), func(i int) int { return len(res.Sample[i]) })[0]
					res.Sample[i][0].Y = ^res.Sample[i][0].Y // every row is (key, key), so (key, ^key) is no row
				})
			})
		}},
		// The merged totals stay right, so the map compare RunTask used to
		// do would accept this; aggregate.Verify does not.
		{"aggregate/group-split-over-two-nodes", "aggregate", func(t *testing.T, how fault) taskRun {
			return aggregateTask(func(tr *topology.Tree, data aggregate.Placement, seed uint64, o ...netsim.Option) (*aggregate.Result, error) {
				res, err := aggregate.TwoLevel(tr, data, seed, o...)
				return tampered(how, res, err, func(res *aggregate.Result) {
					ij := nonEmpty(t, 2, len(res.PerNode), func(i int) int { return len(res.PerNode[i]) })
					i, j := ij[0], ij[1]
					res.PerNode[i][0].Value--
					res.PerNode[j] = append(res.PerNode[j], aggregate.Pair{Group: res.PerNode[i][0].Group, Value: 1})
				})
			})
		}},
		{"multijoin/row-count-off-by-one", "triangle", func(t *testing.T, how fault) taskRun {
			return multijoinTask("triangles", triangleShape(func(tr *topology.Tree, r, s, tt multijoin.Placement, seed uint64, o ...netsim.Option) (*multijoin.Result, error) {
				res, err := multijoin.Triangle(tr, r, s, tt, seed, o...)
				return tampered(how, res, err, func(res *multijoin.Result) { res.PerNode[0]++ })
			}))
		}},
		{"multijoin/checksum-flipped", "starjoin", func(t *testing.T, how fault) taskRun {
			return multijoinTask("rows", starShape(func(tr *topology.Tree, rels []multijoin.Placement, seed uint64, o ...netsim.Option) (*multijoin.Result, error) {
				res, err := multijoin.Star(tr, rels, seed, o...)
				return tampered(how, res, err, func(res *multijoin.Result) { res.Checksum ^= 1 })
			}))
		}},
		{"graph/checksum-flipped", "cc", func(t *testing.T, how fault) taskRun {
			return graphRun(graph.CC, how, func(res *graph.Result) { res.Checksum ^= 1 })
		}},
		{"graph/forest-edge-removed", "spanforest", func(t *testing.T, how fault) taskRun {
			return graphRun(graph.SpanningForest, how, func(res *graph.Result) { res.Forest = res.Forest[1:] })
		}},
	}
	c := testCluster(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, ok := LookupTask(tc.input)
			if !ok {
				t.Fatalf("no task %q", tc.input)
			}
			in := testInput(t, c, spec, 2000)
			for _, workers := range []int{1, 4} {
				c.SetExecOptions(ExecOptions{Workers: workers})
				if res, err := tc.task(t, honest)(c, in); err != nil || res == nil {
					t.Fatalf("workers=%d honest protocol: result=%v err=%v", workers, res, err)
				}
				res, err := tc.task(t, corrupt)(c, in)
				if err == nil {
					t.Errorf("workers=%d: corrupted output passed verification", workers)
				}
				if res != nil {
					t.Errorf("workers=%d: a result came back next to the error", workers)
				}
				res, err = tc.task(t, fail)(c, in)
				if !errors.Is(err, errProtocolDown) || res != nil {
					t.Errorf("workers=%d failing protocol: result=%v err=%v, want its own error alone", workers, res, err)
				}
			}
		})
	}
}

// TestPipelinesRejectWrongRelationCount runs the multiway joins with too few
// and too many relations. The reference is computed beside the run with more
// than one worker, possibly before the protocol has looked at its input, so a
// malformed input has to come back as the same error at every worker count,
// never as a panic from the side goroutine.
func TestPipelinesRejectWrongRelationCount(t *testing.T) {
	c := testCluster(t)
	for _, tc := range []struct {
		task string
		ks   []int
	}{
		{"triangle", []int{0, 2, 4}},
		{"triangle-flat", []int{0, 2, 4}},
		{"starjoin", []int{0, 1, multijoin.MaxStarRelations + 1}},
		{"starjoin-flat", []int{0, 1, multijoin.MaxStarRelations + 1}},
	} {
		spec, ok := LookupTask(tc.task)
		if !ok {
			t.Fatalf("no task %q", tc.task)
		}
		rel := testInput(t, c, spec, 2000).Rels[0]
		for _, k := range tc.ks {
			in := TaskInput{Seed: 42, Rels: make([][][]uint64, k)}
			for j := range in.Rels {
				in.Rels[j] = rel
			}
			var want string
			for _, workers := range []int{1, 4} {
				c.SetExecOptions(ExecOptions{Workers: workers})
				res, err := c.RunTask(tc.task, in)
				if err == nil || res != nil {
					t.Fatalf("%s k=%d workers=%d: result=%v err=%v, want an error alone", tc.task, k, workers, res, err)
				}
				if workers == 1 {
					want = err.Error()
				} else if err.Error() != want {
					t.Errorf("%s k=%d: workers=%d says %q, workers=1 says %q", tc.task, k, workers, err, want)
				}
			}
		}
	}
}
