package topompc_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"topompc"
	"topompc/internal/core/aggregate"
	"topompc/internal/core/join"
	"topompc/internal/core/multijoin"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// Determinism harness: the full Report of every registry task — per-edge
// traffic, per-node sent/received, float-exact round costs, message and
// element counts — must be byte-identical between a serial run (Workers=1)
// and a parallel run (Workers=8). The fuzz equivalence tests compare the
// Exchange runtime against the per-message reference; this harness instead
// catches future races or order-dependent accounting that only differ
// across worker counts.
//
// The paper's three primitives run their local compute (per-home sorts and
// sort-merge set operations) on the engine's pool, so for them the harness
// also compares what each node ends up holding, through the typed Cluster
// methods (primitiveOutputs). The analytics families (join, aggregate,
// multijoin) fork their per-home compute on the pool too; their rows call the
// protocol entry points, because the typed results leave out the samples,
// the blocks and the checksum.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, topo := range []string{"twotier-skew", "caterpillar", "caterpillar-grade", "ring-of-racks"} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			for _, spec := range topompc.Tasks() {
				spec := spec
				t.Run(spec.Name, func(t *testing.T) {
					run := func(workers int) (string, string) {
						c := fixtureCluster(t, topo)
						c.SetExecOptions(topompc.ExecOptions{Workers: workers})
						in := fixtureInput(t, spec, c, topo, "zipf", 2000)
						res, err := c.RunTask(spec.Name, in)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						return res.Summary, serializeReport(res.Report)
					}
					sum1, rep1 := run(1)
					sum8, rep8 := run(8)
					if sum1 != sum8 {
						t.Fatalf("summary diverged:\n  workers=1: %s\n  workers=8: %s", sum1, sum8)
					}
					if rep1 != rep8 {
						t.Fatalf("report diverged between workers=1 and workers=8:\n%s", firstDiff(rep1, rep8))
					}
					if _, ok := primitiveOutputs[spec.Name]; ok {
						comparePrimitiveOutputs(t, spec, topo, 2000)
					}
				})
			}
		})
	}
}

// TestPrimitiveOutputsDeterministicWhenForked repeats the per-node output
// comparison at a size where the heavy homes hold more than the 2·32768
// keys par.SortUint64 needs before it forks; the 2000-key grid above stays
// on its serial path at every worker count.
func TestPrimitiveOutputsDeterministicWhenForked(t *testing.T) {
	if testing.Short() {
		t.Skip("400k-key inputs")
	}
	for _, spec := range topompc.Tasks() {
		if _, ok := primitiveOutputs[spec.Name]; ok {
			spec := spec
			t.Run(spec.Name, func(t *testing.T) { comparePrimitiveOutputs(t, spec, "twotier-skew", 400_000) })
		}
	}
}

// primitiveOutputs maps each registry task whose local compute runs on the
// pool to the call behind it, reduced to a checksum of everything the call
// leaves at the nodes and of how many messages and elements each round took
// to get it there.
var primitiveOutputs = map[string]func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error){
	"sort": func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error) {
		return sortChecksum(c.Sort(in.Data, in.Seed))
	},
	"sort-baseline": func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error) {
		return sortChecksum(c.SortBaseline(in.Data, in.Seed))
	},
	"sort-aware": func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error) {
		return sortChecksum(c.SortAware(in.Data, in.Seed))
	},
	"sort-aware-flat": func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error) {
		return sortChecksum(c.SortAwareBaseline(in.Data, in.Seed))
	},
	"intersect": func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error) {
		return intersectChecksum(c.Intersect(in.R, in.S, in.Seed))
	},
	"intersect-baseline": func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error) {
		return intersectChecksum(c.IntersectBaseline(in.R, in.S, in.Seed))
	},
	"cartesian": func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error) {
		res, err := c.CartesianProduct(in.R, in.S)
		if err != nil {
			return 0, err
		}
		h := fragmentsChecksum(fragmentsChecksum(fnvOffset, res.RPerNode), res.SPerNode)
		for _, r := range res.Rects {
			h = fragmentsChecksum(h, [][]uint64{{uint64(r.X0), uint64(r.X1), uint64(r.Y0), uint64(r.Y1)}})
		}
		return roundsChecksum(h, res.Report), nil
	},
	"join":               joinChecksum(join.Tree),
	"join-baseline":      joinChecksum(join.UniformHash),
	"aggregate":          aggregateChecksum(aggregate.Planned),
	"aggregate-baseline": aggregateChecksum(aggregate.Hash),
	"agg-aware-flat":     aggregateChecksum(aggregate.HashFlat),
	"agg-tree2":          aggregateChecksum(aggregate.CombinerTree),
	"starjoin":           multijoinChecksum(multijoin.Star),
	"starjoin-flat":      multijoinChecksum(multijoin.StarFlat),
	"triangle":           multijoinChecksum(triangleRun(multijoin.Triangle)),
	"triangle-flat":      multijoinChecksum(triangleRun(multijoin.TriangleFlat)),
}

type outputChecksum = func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error)

// joinChecksum covers every join.Result field: per-node pair counts, the
// sampled pairs in emission order, the blocks and the strategy name.
func joinChecksum(run func(*topology.Tree, join.Placement, join.Placement, uint64, ...netsim.Option) (*join.Result, error)) outputChecksum {
	return func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error) {
		tr, opts := topompc.ProtocolEnv(c)
		ti := decodeTyped(in)
		res, err := run(tr, ti.r, ti.s, in.Seed, opts...)
		if err != nil {
			return 0, err
		}
		h := fragmentsChecksum(fnvOffset, [][]uint64{words(res.PerNode)})
		for _, sample := range res.Sample {
			flat := make([]uint64, 0, 3*len(sample))
			for _, p := range sample {
				flat = append(flat, p.Key, p.X, p.Y)
			}
			h = fragmentsChecksum(h, [][]uint64{flat})
		}
		for _, block := range res.Blocks {
			h = fragmentsChecksum(h, [][]uint64{words(block)})
		}
		h = fragmentsChecksum(h, [][]uint64{words([]byte(res.Strategy))})
		return roundsChecksum(h, res.Report), nil
	}
}

// aggregateChecksum covers every aggregate.Result field: each node's
// (group, total) pairs by ascending group, the merged totals likewise, and
// the strategy name.
func aggregateChecksum(run func(*topology.Tree, aggregate.Placement, uint64, ...netsim.Option) (*aggregate.Result, error)) outputChecksum {
	return func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error) {
		tr, opts := topompc.ProtocolEnv(c)
		res, err := run(tr, decodeTyped(in).groups, in.Seed, opts...)
		if err != nil {
			return 0, err
		}
		h := uint64(fnvOffset)
		for _, pairs := range res.PerNode {
			flat := make([]uint64, 0, 2*len(pairs))
			for _, p := range pairs {
				flat = append(flat, p.Group, uint64(p.Value))
			}
			h = fragmentsChecksum(h, [][]uint64{flat})
		}
		h = fragmentsChecksum(h, [][]uint64{sortedTotals(res.Totals()), words([]byte(res.Strategy))})
		return roundsChecksum(h, res.Report), nil
	}
}

// sortedTotals flattens a group -> total map by ascending group.
func sortedTotals(m map[uint64]int64) []uint64 {
	groups := make([]uint64, 0, len(m))
	for g := range m {
		groups = append(groups, g)
	}
	slices.Sort(groups)
	flat := make([]uint64, 0, 2*len(groups))
	for _, g := range groups {
		flat = append(flat, g, uint64(m[g]))
	}
	return flat
}

type starRun = func(*topology.Tree, []multijoin.Placement, uint64, ...netsim.Option) (*multijoin.Result, error)

func triangleRun(run func(*topology.Tree, multijoin.Placement, multijoin.Placement, multijoin.Placement, uint64, ...netsim.Option) (*multijoin.Result, error)) starRun {
	return func(tr *topology.Tree, rels []multijoin.Placement, seed uint64, opts ...netsim.Option) (*multijoin.Result, error) {
		return run(tr, rels[0], rels[1], rels[2], seed, opts...)
	}
}

// multijoinChecksum covers every multijoin.Result field: per-node output
// counts, the output checksum, the sampled triples in emission order, the
// share grid and the cells per node.
func multijoinChecksum(run starRun) outputChecksum {
	return func(c *topompc.Cluster, in topompc.TaskInput) (uint64, error) {
		tr, opts := topompc.ProtocolEnv(c)
		ti := decodeTyped(in)
		rels := make([]multijoin.Placement, len(ti.rels))
		for j, rel := range ti.rels {
			rels[j] = rel
		}
		res, err := run(tr, rels, in.Seed, opts...)
		if err != nil {
			return 0, err
		}
		h := fragmentsChecksum(fnvOffset, [][]uint64{words(res.PerNode), {res.Checksum}, words(res.Shares), words(res.CellsPerNode)})
		for _, sample := range res.Sample {
			flat := make([]uint64, 0, 3*len(sample))
			for _, tp := range sample {
				flat = append(flat, tp.A, tp.B, tp.C)
			}
			h = fragmentsChecksum(h, [][]uint64{flat})
		}
		return roundsChecksum(h, res.Report), nil
	}
}

// words widens a slice of integers for fragmentsChecksum.
func words[T ~int | ~int32 | ~int64 | ~uint8](xs []T) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

func sortChecksum(res *topompc.SortResult, err error) (uint64, error) {
	if err != nil {
		return 0, err
	}
	order := make([]uint64, len(res.NodeOrder))
	for j, i := range res.NodeOrder {
		order[j] = uint64(i)
	}
	h := fragmentsChecksum(fragmentsChecksum(fnvOffset, res.PerNode), [][]uint64{order})
	return roundsChecksum(h, res.Report), nil
}

func intersectChecksum(res *topompc.IntersectResult, err error) (uint64, error) {
	if err != nil {
		return 0, err
	}
	h := fragmentsChecksum(fragmentsChecksum(fnvOffset, res.PerNode), [][]uint64{res.Keys})
	return roundsChecksum(h, res.Report), nil
}

const fnvOffset = 0xcbf29ce484222325

// fragmentsChecksum folds per-node fragments into an FNV-1a style hash that
// depends on which node holds which key at which position.
func fragmentsChecksum(h uint64, frags [][]uint64) uint64 {
	for _, frag := range frags {
		h = (h ^ uint64(len(frag))) * 0x100000001b3
		for _, k := range frag {
			h = (h ^ k) * 0x100000001b3
		}
	}
	return h
}

// roundsChecksum folds every round's message and element counts into h: a
// multicast regrouped or split into several moves no cost and leaves the
// same keys at the same nodes, but it changes the message count.
func roundsChecksum(h uint64, rep *netsim.Report) uint64 {
	for _, rd := range rep.Rounds {
		h = fragmentsChecksum(h, [][]uint64{{uint64(rd.Messages), uint64(rd.Elements)}})
	}
	return h
}

func comparePrimitiveOutputs(t *testing.T, spec topompc.Task, topo string, n int) {
	t.Helper()
	run := func(workers int) uint64 {
		c := fixtureCluster(t, topo)
		c.SetExecOptions(topompc.ExecOptions{Workers: workers})
		sum, err := primitiveOutputs[spec.Name](c, fixtureInput(t, spec, c, topo, "zipf", n))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sum
	}
	if out1, out8 := run(1), run(8); out1 != out8 {
		t.Fatalf("per-node outputs diverged between workers=1 (%#x) and workers=8 (%#x)", out1, out8)
	}
}

// serializeReport renders every statistic of a report bit-exactly (float
// costs via IEEE bits, every round's scalars and the per-edge and per-node
// totals).
func serializeReport(r *netsim.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rounds=%d\n", r.NumRounds())
	for _, rd := range r.Rounds {
		fmt.Fprintf(&sb, "round %d cost=%x msgs=%d elems=%d bottleneck=%d maxrecv=%d\n",
			rd.Index, math.Float64bits(rd.Cost), rd.Messages, rd.Elements, rd.BottleneckEdge, rd.MaxReceived)
	}
	fmt.Fprintf(&sb, "edges=%v\nsent=%v\nrecv=%v\n", r.EdgeTotals, r.SentTotals, r.RecvTotals)
	return sb.String()
}

func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  workers=1: %s\n  workers=8: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(la), len(lb))
}
