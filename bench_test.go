// Protocol and substrate micro-benchmarks: each BenchmarkProtocol* times one
// protocol on a fixed topology and reports its model-cost metric (cost/LB
// ratio) alongside wall-clock time, each BenchmarkSubstrate* one building
// block. The paper's tables and figures are benchmarked where they are
// generated: BenchmarkExperiments in internal/exper runs every experiment of
// EXPERIMENTS.md as a sub-benchmark, and cmd/topobench renders the same
// numbers as tables.
package topompc

import (
	"fmt"
	"math/rand"
	"testing"

	"topompc/internal/core/cartesian"
	"topompc/internal/core/intersect"
	"topompc/internal/core/place"
	"topompc/internal/core/sorting"
	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// --- Protocol micro-benchmarks with cost/LB metrics -----------------------

func benchTopo(b *testing.B) *topology.Tree {
	t, err := topology.TwoTier([]int{4, 4, 4}, []float64{4, 2, 1}, 8)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func BenchmarkProtocolTreeIntersect(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			tr := benchTopo(b)
			rng := rand.New(rand.NewSource(1))
			r, s, err := dataset.SetPair(rng, n/4, 3*n/4, n/20)
			if err != nil {
				b.Fatal(err)
			}
			pr, _ := dataset.SplitZipf(rng, r, tr.NumCompute(), 1.2)
			ps, _ := dataset.SplitZipf(rng, s, tr.NumCompute(), 1.2)
			lb := lowerbound.Intersection(tr, benchLoads(tr, pr, ps), int64(n/4), int64(3*n/4))
			b.ResetTimer()
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := intersect.Tree(tr, pr, ps, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				ratio = netsim.Ratio(res.Report.TotalCost(), lb.Value)
			}
			b.ReportMetric(ratio, "cost/LB")
			b.ReportMetric(float64(n)/float64(b.Elapsed().Nanoseconds())*float64(b.N)*1e9, "elems/s")
		})
	}
}

func BenchmarkProtocolTreeCartesian(b *testing.B) {
	for _, half := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("half=%d", half), func(b *testing.B) {
			tr := benchTopo(b)
			rng := rand.New(rand.NewSource(2))
			r := dataset.Distinct(rng, half)
			s := dataset.Distinct(rng, half)
			pr, _ := dataset.SplitUniform(r, tr.NumCompute())
			ps, _ := dataset.SplitUniform(s, tr.NumCompute())
			lb := lowerbound.Cartesian(tr, benchLoads(tr, pr, ps))
			b.ResetTimer()
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := cartesian.Tree(tr, pr, ps)
				if err != nil {
					b.Fatal(err)
				}
				ratio = netsim.Ratio(res.Report.TotalCost(), lb.Value)
			}
			b.ReportMetric(ratio, "cost/LB")
		})
	}
}

func BenchmarkProtocolWTS(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			tr := benchTopo(b)
			rng := rand.New(rand.NewSource(3))
			keys := dataset.Distinct(rng, n)
			data, _ := dataset.SplitZipf(rng, keys, tr.NumCompute(), 1.0)
			lb := lowerbound.Sorting(tr, benchLoads(tr, data))
			b.ResetTimer()
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := sorting.WTS(tr, data, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				ratio = netsim.Ratio(res.Report.TotalCost(), lb.Value)
			}
			b.ReportMetric(ratio, "cost/LB")
		})
	}
}

func BenchmarkSubstrateSteiner(b *testing.B) {
	tr := benchTopo(b)
	sc := topology.NewSteinerScratch(tr)
	vs := tr.ComputeNodes()
	dsts := []topology.NodeID{vs[3], vs[7], vs[11]}
	var buf []topology.EdgeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.Steiner(buf[:0], sc, vs[0], dsts)
	}
}

func BenchmarkSubstratePackLemma5(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	sides := make([]int64, 64)
	owners := make([]topology.NodeID, 64)
	for i := range sides {
		sides[i] = int64(1) << uint(rng.Intn(10))
		owners[i] = topology.NodeID(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cartesian.PackLemma5(sides, owners); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateBalancedPartition(b *testing.B) {
	tr := benchTopo(b)
	loads := make(topology.Loads, tr.NumNodes())
	for i, v := range tr.ComputeNodes() {
		loads[v] = int64(100 + i*37)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.BalancedPartition(tr, loads, 400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrateShortTaskFleet times a fleet of short registry tasks
// on one cluster — the workload that motivated memoizing place.Capacities
// and place.HierarchyFor on the Tree: every iteration is a full agg-tree2
// run (hierarchy lookup, capacity-weighted chooser, multi-level up-sweep,
// scatter, verification) whose placement structure now comes from the
// per-tree cache instead of being recomputed.
func BenchmarkSubstrateShortTaskFleet(b *testing.B) {
	c, err := CaterpillarCluster([]float64{8, 3, 0.5, 3, 8}, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	data := make([][]uint64, c.NumNodes())
	for i := range data {
		for j := 0; j < 64; j++ {
			data[i] = append(data[i], uint64(rng.Intn(48)))
		}
	}
	in := TaskInput{Data: data, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunTask("agg-tree2", in); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLoads(t *topology.Tree, parts ...dataset.Placement) topology.Loads {
	loads := make(topology.Loads, t.NumNodes())
	for i, v := range t.ComputeNodes() {
		for _, p := range parts {
			loads[v] += int64(len(p[i]))
		}
	}
	return loads
}
