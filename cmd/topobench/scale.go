package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"topompc/internal/core/graph"
	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// The -scale mode records the data-plane performance trajectory in
// BENCH_scale.json: steady-state exchange rounds and cc contraction at
// 10⁴/10⁵ scale (ns/op, allocs/op, B/op), plus a 10⁵-topology-node
// caterpillar G(n,p) cc smoke under an optional wall-clock budget.
// -scale-big extends the sweep to the million-node data plane: a 10⁶-node
// graded caterpillar build + placement (capacities + weak-cut hierarchy)
// benchmark, and a cc run over a G(10⁶, 2·10⁻⁵) graph (≈10⁷ edges) end to
// end with lean stats.

// scaleRecord is one entry of BENCH_scale.json.
type scaleRecord struct {
	// Name identifies the probe: exchange, cc, cc-smoke, topo-build,
	// cc-big.
	Name string `json:"name"`
	// Size is the scale knob: topology nodes for exchange/topo-build and
	// the smokes, graph vertices for cc.
	Size int `json:"size"`
	// Workers is the compute-plane worker count of a smoke probe; 0 means
	// the engine default (GOMAXPROCS). Paired workers=1 / workers=N rows
	// carry the multicore speedup in Speedup.
	Workers int `json:"workers,omitempty"`
	// NsPerOp is the steady-state per-op (benchmarked probes) or the
	// single-run wall clock (smoke probes) in nanoseconds.
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp / BytesPerOp are per-op heap traffic for benchmarked
	// probes (absent for smoke probes).
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	// Speedup is the wall-clock ratio of the paired workers=1 row over
	// this row (workers>1 smoke rows only).
	Speedup float64 `json:"speedup,omitempty"`
	// Edges / Rounds / Cost / HeapBytes describe the smoke runs: input
	// edges, exchange rounds executed, total model cost, and the live
	// heap right after the run.
	Edges     int64   `json:"edges,omitempty"`
	Rounds    int     `json:"rounds,omitempty"`
	Cost      float64 `json:"cost,omitempty"`
	HeapBytes int64   `json:"heap_bytes,omitempty"`
}

// scaleHost says on what machine a scale sweep was recorded: wall clocks of
// two recordings compare only between like hosts, and a workers=w row means
// something only where there are w CPUs.
type scaleHost struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func thisHost() scaleHost {
	h := scaleHost{CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return h
}

// benchScale is the BENCH_scale.json payload.
type benchScale struct {
	Host     scaleHost     `json:"host"`
	Seed     uint64        `json:"seed"`
	WallNs   int64         `json:"wall_ns"`
	BudgetNs int64         `json:"budget_ns,omitempty"`
	Records  []scaleRecord `json:"records"`
}

// gradedCaterpillar builds a caterpillar with the given spine length and a
// repeating 1..7 bandwidth gradient (legs 4): deep, bandwidth-banded, and
// cheap to scale — the canonical stress topology of the netsim benchmarks.
func gradedCaterpillar(spines int) (*topology.Tree, error) {
	spine := make([]float64, spines)
	for i := range spine {
		spine[i] = 1 + float64(i%7)
	}
	return topology.Caterpillar(spine, 4)
}

// gnpPlacement samples G(n, p) with a fixed generator seed and deals the
// edges round-robin across the compute nodes.
func gnpPlacement(n int, p float64, nodes int) (graph.Placement, int64, error) {
	packed, err := dataset.GNP(rand.New(rand.NewSource(11)), n, p)
	if err != nil {
		return nil, 0, err
	}
	edges := make(graph.Placement, nodes)
	for i, pk := range packed {
		u, v := dataset.UnpackEdge(pk)
		j := i % nodes
		edges[j] = append(edges[j], graph.Edge{U: uint64(u), V: uint64(v)})
	}
	return edges, int64(len(packed)), nil
}

// exchangeScale measures the steady-state planned-exchange round on a
// caterpillar with the given total node count: a fixed batch of unicasts
// and multicasts between random compute nodes, accounted with lean stats.
func exchangeScale(nodes int, stdout io.Writer) (scaleRecord, error) {
	tr, err := gradedCaterpillar(nodes / 2)
	if err != nil {
		return scaleRecord{}, err
	}
	rng := rand.New(rand.NewSource(99))
	vs := tr.ComputeNodes()
	keys := make([]uint64, 8)
	type transfer struct {
		from, to topology.NodeID
		dsts     []topology.NodeID
	}
	batch := make([]transfer, nodes)
	for i := range batch {
		from := vs[rng.Intn(len(vs))]
		if i%16 == 15 {
			batch[i] = transfer{from: from, dsts: []topology.NodeID{
				vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]}}
		} else {
			batch[i] = transfer{from: from, to: vs[rng.Intn(len(vs))]}
		}
	}
	e := netsim.NewEngine(tr, netsim.WithLeanStats())
	round := func() {
		x := e.Exchange()
		for _, tf := range batch {
			if tf.dsts == nil {
				x.Out(tf.from).Send(tf.to, netsim.TagData, keys)
			} else {
				x.Out(tf.from).Multicast(tf.dsts, netsim.TagData, keys)
			}
		}
		x.Execute()
	}
	round() // warm the engine arena so the benchmark sees the steady state
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
	rec := scaleRecord{
		Name: "exchange", Size: nodes,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	fmt.Fprintf(stdout, "exchange %7d nodes: %12d ns/op  %5d allocs/op  %8d B/op\n",
		nodes, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp)
	return rec, nil
}

// ccScale benchmarks the int-indexed contraction on an n-vertex
// average-degree-4 G(n,p) over the 5-spine graded caterpillar fixture (the
// graph package's benchmark fixture).
func ccScale(n int, seed uint64, stdout io.Writer) (scaleRecord, error) {
	tr, err := topology.Caterpillar([]float64{4, 8, 16, 8, 4}, 2)
	if err != nil {
		return scaleRecord{}, err
	}
	edges, _, err := gnpPlacement(n, 4.0/float64(n), tr.NumCompute())
	if err != nil {
		return scaleRecord{}, err
	}
	if _, err := graph.CC(tr, edges, seed); err != nil {
		return scaleRecord{}, err
	}
	idx := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graph.CC(tr, edges, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec := scaleRecord{
		Name: "cc", Size: n,
		NsPerOp:     idx.NsPerOp(),
		AllocsPerOp: idx.AllocsPerOp(),
		BytesPerOp:  idx.AllocedBytesPerOp(),
	}
	fmt.Fprintf(stdout, "cc       %7d verts: %12d ns/op  %5d allocs/op  %8d B/op\n",
		n, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp)
	return rec, nil
}

// ccRunner is a connectivity protocol entry point (graph.CC or
// graph.CCFast) for the smoke probes.
type ccRunner func(*topology.Tree, graph.Placement, uint64, ...netsim.Option) (*graph.Result, error)

// Live-heap regression bounds for the smoke probes: a smoke fails when
// the post-run live heap (after a forced GC) exceeds its bound, pinning
// the contraction-time scratch release so the big runs cannot silently
// climb back toward the pre-trimming ~7 GB plateau.
const (
	smokeHeapBudget = 1 << 27 // 128 MB for the 10⁵-vertex smoke (measured ~38 MB)
	bigHeapBudget   = 1 << 30 // 1 GB for the 10⁶-vertex probes (measured ~0.41 GB; pre-trimming ~7.4 GB)
)

// ccSmoke runs one connectivity protocol once, end to end with lean
// stats, on a graded caterpillar with the given total node count and a
// G(n, p) input, and reports wall clock, rounds, total cost, and the
// live heap after the run. workers > 0 pins the compute-plane worker
// count (0 keeps the engine default); heapBudget > 0 fails the probe
// when the post-GC live heap exceeds it.
func ccSmoke(name string, nodes, n int, p float64, seed uint64, workers int, heapBudget int64, run ccRunner, stdout io.Writer) (scaleRecord, error) {
	tr, err := gradedCaterpillar(nodes / 2)
	if err != nil {
		return scaleRecord{}, err
	}
	edges, ne, err := gnpPlacement(n, p, tr.NumCompute())
	if err != nil {
		return scaleRecord{}, err
	}
	opts := []netsim.Option{netsim.WithLeanStats()}
	if workers > 0 {
		opts = append(opts, netsim.WithWorkers(workers))
	}
	start := time.Now()
	res, err := run(tr, edges, seed, opts...)
	elapsed := time.Since(start)
	if err != nil {
		return scaleRecord{}, err
	}
	// Force a collection so HeapAlloc reports live bytes, not garbage that
	// happens to be awaiting the next GC cycle.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec := scaleRecord{
		Name: name, Size: nodes, Workers: workers,
		NsPerOp:   elapsed.Nanoseconds(),
		Edges:     ne,
		Rounds:    res.Report.NumRounds(),
		Cost:      res.Report.TotalCost(),
		HeapBytes: int64(ms.HeapAlloc),
	}
	wtag := ""
	if workers > 0 {
		wtag = fmt.Sprintf(" [w=%d]", workers)
	}
	fmt.Fprintf(stdout, "%s%s %d-node topology, %d verts, %d edges: %v wall, %d rounds, cost %.0f, %d components, heap %d MB\n",
		name, wtag, nodes, n, ne, elapsed.Round(time.Millisecond), rec.Rounds, rec.Cost, res.Components, rec.HeapBytes>>20)
	if heapBudget > 0 && rec.HeapBytes > heapBudget {
		return rec, fmt.Errorf("%s: live heap %d MB exceeds the %d MB budget (scratch trimming regression?)",
			name, rec.HeapBytes>>20, heapBudget>>20)
	}
	return rec, nil
}

// topoBuild times the million-node control-plane path: building a graded
// caterpillar of the given total node count plus the placement sweeps
// (capacity weights and the weak-cut hierarchy) over it.
func topoBuild(nodes int, stdout io.Writer) (scaleRecord, error) {
	start := time.Now()
	tr, err := gradedCaterpillar(nodes / 2)
	if err != nil {
		return scaleRecord{}, err
	}
	w := place.Capacities(tr)
	h := place.HierarchyFor(tr)
	elapsed := time.Since(start)
	levels := 0
	if h != nil {
		levels = h.Depth()
	}
	rec := scaleRecord{Name: "topo-build", Size: tr.NumNodes(), NsPerOp: elapsed.Nanoseconds()}
	fmt.Fprintf(stdout, "topo-build %d nodes (+capacities+hierarchy, %d weights, %d levels): %v wall\n",
		tr.NumNodes(), len(w), levels, elapsed.Round(time.Millisecond))
	return rec, nil
}

// pairedSpeedup is the wall-clock ratio of a workers=1 run over its paired
// workers=w run, or 0 (no speedup field in the record) when the pair cannot
// measure one: w workers time-sliced onto fewer than w CPUs read ≈1× whatever
// the code does, and a baseline must not carry that as a result.
func pairedSpeedup(name string, cpus, w int, ns1, nsW int64, stdout io.Writer) float64 {
	if cpus < w {
		fmt.Fprintf(stdout, "%s [w=%d]: no speedup recorded, this machine has %d CPU(s) for %d workers\n", name, w, cpus, w)
		return 0
	}
	if nsW <= 0 {
		return 0
	}
	sp := float64(ns1) / float64(nsW)
	fmt.Fprintf(stdout, "%s [w=%d]: %.2fx vs workers=1\n", name, w, sp)
	return sp
}

// runScale executes the -scale sweep (and the -scale-big extension) and
// writes BENCH_scale.json, returning the payload so -compare can diff it
// against a committed baseline. A nonzero budget (seconds) fails the run
// when the sweep's wall clock exceeds it. workers > 0 caps the top of
// the multicore sweep (0 uses NumCPU).
func runScale(seed uint64, big bool, budgetSec, workers int, stdout io.Writer) (benchScale, error) {
	start := time.Now()
	out := benchScale{Host: thisHost(), Seed: seed}
	fmt.Fprintf(stdout, "host: %s, NumCPU=%d GOMAXPROCS=%d, %s\n", out.Host.CPUModel, out.Host.NumCPU, out.Host.GOMAXPROCS, out.Host.GoVersion)
	add := func(rec scaleRecord, err error) error {
		if err != nil {
			return err
		}
		out.Records = append(out.Records, rec)
		return nil
	}

	for _, nodes := range []int{10_000, 100_000} {
		if err := add(exchangeScale(nodes, stdout)); err != nil {
			return benchScale{}, err
		}
	}
	for _, n := range []int{10_000, 100_000} {
		if err := add(ccScale(n, seed, stdout)); err != nil {
			return benchScale{}, err
		}
	}
	// The -scale smoke: a 10⁵-node caterpillar hosting an average-degree-4
	// G(n, p) connectivity run, with the live-heap regression bound.
	if err := add(ccSmoke("cc-smoke", 100_000, 100_000, 4.0/100_000, seed, 0, smokeHeapBudget, graph.CC, stdout)); err != nil {
		return benchScale{}, err
	}
	// The round-count trajectory: Borůvka cc vs exponentiation cc-fast on
	// the degree-20 G(n, p) of the acceptance benchmark, paired by scale
	// so -compare tracks both rounds and total cost.
	for _, n := range []int{10_000, 100_000} {
		p := 20 / float64(n)
		if err := add(ccSmoke("cc-rounds", n, n, p, seed, 0, 0, graph.CC, stdout)); err != nil {
			return benchScale{}, err
		}
		if err := add(ccSmoke("cc-fast-rounds", n, n, p, seed, 0, 0, graph.CCFast, stdout)); err != nil {
			return benchScale{}, err
		}
	}
	// Multicore sweep: the degree-20 10⁵ fixture at workers {1, 2, top}
	// (deduplicated), pairing every row against the workers=1 run so the
	// Speedup column records the compute-plane scaling on this machine.
	// The hard invariant says rounds/cost/checksums are identical across
	// worker counts, so only the wall clock may move.
	maxW := workers
	if maxW <= 0 {
		maxW = runtime.NumCPU()
	}
	sweep := []int{1, 2, maxW}
	slices.Sort(sweep)
	sweep = slices.Compact(sweep)
	for _, probe := range []struct {
		name string
		run  ccRunner
	}{{"cc-workers", graph.CC}, {"cc-fast-workers", graph.CCFast}} {
		var w1 int64
		for _, w := range sweep {
			rec, err := ccSmoke(probe.name, 100_000, 100_000, 20.0/100_000, seed, w, 0, probe.run, stdout)
			if err != nil {
				return benchScale{}, err
			}
			if w == 1 {
				w1 = rec.NsPerOp
			} else {
				rec.Speedup = pairedSpeedup(probe.name, runtime.NumCPU(), w, w1, rec.NsPerOp, stdout)
			}
			out.Records = append(out.Records, rec)
		}
	}
	if big {
		if err := add(topoBuild(1_000_000, stdout)); err != nil {
			return benchScale{}, err
		}
		// ≈10⁷ edges: p·n(n−1)/2 with n = 10⁶, p = 2·10⁻⁵. Each probe
		// always records a workers=1 row; on a multicore machine a paired
		// workers=min(8, top) row carries the end-to-end speedup.
		bigW := maxW
		if bigW > 8 {
			bigW = 8
		}
		for _, probe := range []struct {
			name string
			run  ccRunner
		}{{"cc-big", graph.CC}, {"cc-fast-big", graph.CCFast}} {
			r1, err := ccSmoke(probe.name, 1_000_000, 1_000_000, 2e-5, seed, 1, bigHeapBudget, probe.run, stdout)
			if err != nil {
				return benchScale{}, err
			}
			out.Records = append(out.Records, r1)
			if bigW > 1 {
				rN, err := ccSmoke(probe.name, 1_000_000, 1_000_000, 2e-5, seed, bigW, bigHeapBudget, probe.run, stdout)
				if err != nil {
					return benchScale{}, err
				}
				rN.Speedup = pairedSpeedup(probe.name, runtime.NumCPU(), bigW, r1.NsPerOp, rN.NsPerOp, stdout)
				out.Records = append(out.Records, rN)
			}
		}
	}

	out.WallNs = time.Since(start).Nanoseconds()
	if budgetSec > 0 {
		out.BudgetNs = int64(budgetSec) * int64(time.Second)
	}
	if err := writeJSON("BENCH_scale.json", out); err != nil {
		return benchScale{}, err
	}
	fmt.Fprintf(stdout, "wrote BENCH_scale.json (%d records, %v wall)\n",
		len(out.Records), time.Duration(out.WallNs).Round(time.Millisecond))
	if out.BudgetNs > 0 && out.WallNs > out.BudgetNs {
		return out, fmt.Errorf("scale sweep took %v, over the %ds budget",
			time.Duration(out.WallNs).Round(time.Millisecond), budgetSec)
	}
	return out, nil
}
