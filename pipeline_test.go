package topompc

import (
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

// tampered applies f to a protocol's result when tamper is set, so one
// wrapper serves as both the honest control and the faulty protocol.
func tampered[R any](tamper bool, res *R, err error, f func(*R)) (*R, error) {
	if tamper && err == nil {
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
// pipeline's verification step that fires.
func TestPipelinesRejectWrongOutput(t *testing.T) {
	graphRun := func(real graphProtocol, tamper bool, f func(*graph.Result)) taskRun {
		return graphTask(func(tr *topology.Tree, edges graph.Placement, seed uint64, o ...netsim.Option) (*graph.Result, error) {
			res, err := real(tr, edges, seed, o...)
			return tampered(tamper, res, err, f)
		})
	}
	cases := []struct {
		name, input string // input: the table row whose input shape is generated
		task        func(t *testing.T, tamper bool) taskRun
	}{
		{"intersect/key-dropped", "intersect", func(t *testing.T, tamper bool) taskRun {
			return intersectTask(func(tr *topology.Tree, r, s dataset.Placement, seed uint64, o ...netsim.Option) (*intersect.Result, error) {
				res, err := intersect.Tree(tr, r, s, seed, o...)
				return tampered(tamper, res, err, func(res *intersect.Result) { res.Output = res.Output[1:] })
			})
		}},
		// CartesianProduct picks its own protocol, so this case enters the
		// pipeline one step later, at cartesianWith.
		{"cartesian/row-dropped", "cartesian", func(t *testing.T, tamper bool) taskRun {
			return func(c *Cluster, in TaskInput) (*TaskResult, error) {
				real, lb := c.cartesianCase(c.loads(in.R, in.S), sizes(in.R), sizes(in.S))
				res, err := c.cartesianWith(in.R, in.S, func(tr *topology.Tree, r, s dataset.Placement, o ...netsim.Option) (*cartesian.Result, error) {
					res, err := real(tr, r, s, o...)
					return tampered(tamper, res, err, func(res *cartesian.Result) {
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
		{"sort/keys-swapped-across-nodes", "sort", func(t *testing.T, tamper bool) taskRun {
			return sortTask(func(tr *topology.Tree, data dataset.Placement, seed uint64, o ...netsim.Option) (*sorting.Result, error) {
				res, err := sorting.WTS(tr, data, seed, o...)
				return tampered(tamper, res, err, func(res *sorting.Result) {
					ij := nonEmpty(t, 2, len(res.PerNode), func(i int) int { return len(res.PerNode[i]) })
					i, j := ij[0], ij[1]
					res.PerNode[i][0], res.PerNode[j][0] = res.PerNode[j][0], res.PerNode[i][0]
				})
			})
		}},
		{"join/pair-count-off-by-one", "join", func(t *testing.T, tamper bool) taskRun {
			return joinTask(func(tr *topology.Tree, r, s join.Placement, seed uint64, o ...netsim.Option) (*join.Result, error) {
				res, err := join.Tree(tr, r, s, seed, o...)
				return tampered(tamper, res, err, func(res *join.Result) { res.PerNode[0]++ })
			})
		}},
		// The pair count stays right; only join.Verify's sample check sees a
		// sampled pair whose S payload is in neither relation.
		{"join/sampled-pair-fabricated", "join", func(t *testing.T, tamper bool) taskRun {
			return joinTask(func(tr *topology.Tree, r, s join.Placement, seed uint64, o ...netsim.Option) (*join.Result, error) {
				res, err := join.Tree(tr, r, s, seed, o...)
				return tampered(tamper, res, err, func(res *join.Result) {
					i := nonEmpty(t, 1, len(res.Sample), func(i int) int { return len(res.Sample[i]) })[0]
					res.Sample[i][0].Y = ^res.Sample[i][0].Y // every row is (key, key), so (key, ^key) is no row
				})
			})
		}},
		// The merged totals stay right, so the map compare RunTask used to
		// do would accept this; aggregate.Verify does not.
		{"aggregate/group-split-over-two-nodes", "aggregate", func(t *testing.T, tamper bool) taskRun {
			return aggregateTask(func(tr *topology.Tree, data aggregate.Placement, seed uint64, o ...netsim.Option) (*aggregate.Result, error) {
				res, err := aggregate.TwoLevel(tr, data, seed, o...)
				return tampered(tamper, res, err, func(res *aggregate.Result) {
					ij := nonEmpty(t, 2, len(res.PerNode), func(i int) int { return len(res.PerNode[i]) })
					i, j := ij[0], ij[1]
					res.PerNode[i][0].Value--
					res.PerNode[j] = append(res.PerNode[j], aggregate.Pair{Group: res.PerNode[i][0].Group, Value: 1})
				})
			})
		}},
		{"multijoin/row-count-off-by-one", "triangle", func(t *testing.T, tamper bool) taskRun {
			return multijoinTask("triangles", triangleShape(func(tr *topology.Tree, r, s, tt multijoin.Placement, seed uint64, o ...netsim.Option) (*multijoin.Result, error) {
				res, err := multijoin.Triangle(tr, r, s, tt, seed, o...)
				return tampered(tamper, res, err, func(res *multijoin.Result) { res.PerNode[0]++ })
			}))
		}},
		{"multijoin/checksum-flipped", "starjoin", func(t *testing.T, tamper bool) taskRun {
			return multijoinTask("rows", starShape(func(tr *topology.Tree, rels []multijoin.Placement, seed uint64, o ...netsim.Option) (*multijoin.Result, error) {
				res, err := multijoin.Star(tr, rels, seed, o...)
				return tampered(tamper, res, err, func(res *multijoin.Result) { res.Checksum ^= 1 })
			}))
		}},
		{"graph/checksum-flipped", "cc", func(t *testing.T, tamper bool) taskRun {
			return graphRun(graph.CC, tamper, func(res *graph.Result) { res.Checksum ^= 1 })
		}},
		{"graph/forest-edge-removed", "spanforest", func(t *testing.T, tamper bool) taskRun {
			return graphRun(graph.SpanningForest, tamper, func(res *graph.Result) { res.Forest = res.Forest[1:] })
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
			if res, err := tc.task(t, false)(c, in); err != nil || res == nil {
				t.Fatalf("honest protocol: result=%v err=%v", res, err)
			}
			res, err := tc.task(t, true)(c, in)
			if err == nil {
				t.Error("corrupted output passed verification")
			}
			if res != nil {
				t.Error("a result came back next to the error")
			}
		})
	}
}
