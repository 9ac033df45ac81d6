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
// 10⁴/10⁵ scale (ns/op, allocs/op, B/op), plus end-to-end graph.CC runs on
// G(n,p) inputs over graph-dense's fat tree, where the contraction runs
// (smokeProbes): the 10⁵-vertex degree-4 smoke under a live-heap budget,
// the degree-20 round count at 10⁴ vertices and the degree-20 10⁵-vertex
// worker sweep. -scale-big extends
// the sweep to the million-node data plane: a 10⁶-node graded caterpillar
// build + placement (capacities + weak-cut hierarchy) benchmark, and a cc
// run over a G(10⁶, 2·10⁻⁵) graph (≈10⁷ edges) end to end.

// scaleRecord is one entry of BENCH_scale.json.
type scaleRecord struct {
	// Name identifies the probe: exchange, cc, topo-build, or a smoke
	// probe (cc-smoke, cc-rounds, cc-workers, cc-big).
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

// benchHost says on what machine a sweep was recorded: wall clocks of
// two recordings compare only between like hosts, and a workers=w row means
// something only where there are w CPUs.
type benchHost struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func thisHost() benchHost {
	h := benchHost{CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
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
	Host     benchHost     `json:"host"`
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
// and multicasts between random compute nodes.
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
	e := netsim.NewEngine(tr)
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

// Live-heap regression bounds for the smoke probes: a smoke fails when
// the post-run live heap (after a forced GC) exceeds its bound, pinning
// the contraction-time scratch release so the big runs cannot silently
// climb back toward the pre-trimming ~7 GB plateau.
const (
	smokeHeapBudget = 1 << 27 // 128 MB for the 10⁵-vertex smoke (measured ≈ 2.4 MB on the fat tree)
	bigHeapBudget   = 1 << 30 // 1 GB for the 10⁶-vertex probes (measured ~0.41 GB; pre-trimming ~7.4 GB)
)

// smokeProbe is one end-to-end cc probe of the scale sweep: graph.CC on a
// G(n, p) input over a tree of the given total node count, a graded
// caterpillar unless tree builds another.
type smokeProbe struct {
	name     string
	nodes, n int
	p        float64
	tree     func() (*topology.Tree, error)
	// contract fails the probe when graph.CC gathers instead of running
	// the contraction.
	contract bool
	// heapBudget > 0 fails the probe when the post-GC live heap exceeds it.
	heapBudget int64
	// workers gives the worker counts of the probe's rows when the sweep
	// tops out at maxW; nil runs it once at the engine default.
	workers func(maxW int) []int
	// big probes run only with -scale-big.
	big bool
}

// smokeProbes are the sweep's smoke probes, in the order they run and are
// recorded. Their model figures (edges, rounds, cost) depend only on the
// probe and the seed, whatever the worker count.
//
// The three -scale probes run over graph-dense's fat tree (85 nodes, 64
// leaves), recorded as their size, and fail if graph.CC gathers: on a graded
// caterpillar it gathers, and a probe would time phase 1's propose sweep and
// one serial union-find instead of the contraction.
var smokeProbes = []smokeProbe{
	// The -scale smoke: an average-degree-4 10⁵-vertex G(n, p)
	// connectivity run, with the live-heap regression bound.
	{name: "cc-smoke", nodes: 85, n: 100_000, p: 4.0 / 100_000, heapBudget: smokeHeapBudget, contract: true, tree: denseTree},
	// The round-count trajectory: cc's rounds and total cost on the
	// degree-20 G(n, p) of the acceptance benchmark at 10⁴. At 10⁵ the
	// worker sweep below records them.
	{name: "cc-rounds", nodes: 85, n: 10_000, p: 20.0 / 10_000, contract: true, tree: denseTree},
	// Multicore sweep: the degree-20 10⁵-vertex G(n, p) at workers
	// {1, 2, top}, every row paired against the workers=1 run so the
	// Speedup column records the compute-plane scaling of the contraction
	// on this machine.
	{name: "cc-workers", nodes: 85, n: 100_000, p: 20.0 / 100_000, workers: workerSweep, contract: true, tree: denseTree},
	// ≈10⁷ edges: p·n(n−1)/2 with n = 10⁶, p = 2·10⁻⁵. The probe always
	// records a workers=1 row; on a multicore machine a paired
	// workers=min(8, top) row carries the end-to-end speedup.
	{name: "cc-big", nodes: 1_000_000, n: 1_000_000, p: 2e-5, heapBudget: bigHeapBudget, workers: bigPair, big: true},
}

// denseTree is graph-dense's fat tree, where graph.CC contracts.
func denseTree() (*topology.Tree, error) { return topology.FatTree(3, 4, 16, 0.25) }

func workerSweep(maxW int) []int {
	sweep := []int{1, 2, maxW}
	slices.Sort(sweep)
	return slices.Compact(sweep)
}

func bigPair(maxW int) []int {
	return slices.Compact([]int{1, min(8, maxW)})
}

// ccSmoke runs one smoke probe once, end to end, and reports wall clock,
// rounds, total cost, and the live heap after the run. workers > 0 pins
// the compute-plane worker count (0 keeps the engine default).
func ccSmoke(pr smokeProbe, seed uint64, workers int, stdout io.Writer) (scaleRecord, error) {
	build := pr.tree
	if build == nil {
		build = func() (*topology.Tree, error) { return gradedCaterpillar(pr.nodes / 2) }
	}
	tr, err := build()
	if err != nil {
		return scaleRecord{}, err
	}
	edges, ne, err := gnpPlacement(pr.n, pr.p, tr.NumCompute())
	if err != nil {
		return scaleRecord{}, err
	}
	var opts []netsim.Option
	if workers > 0 {
		opts = append(opts, netsim.WithWorkers(workers))
	}
	start := time.Now()
	res, err := graph.CC(tr, edges, seed, opts...)
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
		Name: pr.name, Size: pr.nodes, Workers: workers,
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
		pr.name, wtag, pr.nodes, pr.n, ne, elapsed.Round(time.Millisecond), rec.Rounds, rec.Cost, res.Components, rec.HeapBytes>>20)
	if pr.contract && res.Strategy == "gather" {
		return rec, fmt.Errorf("%s: graph.CC gathered, so the probe does not time the contraction", pr.name)
	}
	if pr.heapBudget > 0 && rec.HeapBytes > pr.heapBudget {
		return rec, fmt.Errorf("%s: live heap %d MB exceeds the %d MB budget (scratch trimming regression?)",
			pr.name, rec.HeapBytes>>20, pr.heapBudget>>20)
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
// writes BENCH_scale.json. A nonzero budget (seconds) fails the run when
// the sweep's wall clock exceeds it. workers > 0 caps the top of the
// multicore sweep (0 uses NumCPU).
func runScale(seed uint64, big bool, budgetSec, workers int, stdout io.Writer) error {
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
	maxW := workers
	if maxW <= 0 {
		maxW = runtime.NumCPU()
	}
	// smokes runs the probes of one size class. Every workers=w row pairs
	// against its probe's workers=1 run; only the wall clock may differ.
	smokes := func(big bool) error {
		for _, pr := range smokeProbes {
			if pr.big != big {
				continue
			}
			ws := []int{0}
			if pr.workers != nil {
				ws = pr.workers(maxW)
			}
			var w1 int64
			for _, w := range ws {
				rec, err := ccSmoke(pr, seed, w, stdout)
				if err != nil {
					return err
				}
				if w == 1 {
					w1 = rec.NsPerOp
				} else if w > 1 {
					rec.Speedup = pairedSpeedup(pr.name, runtime.NumCPU(), w, w1, rec.NsPerOp, stdout)
				}
				out.Records = append(out.Records, rec)
			}
		}
		return nil
	}

	for _, nodes := range []int{10_000, 100_000} {
		if err := add(exchangeScale(nodes, stdout)); err != nil {
			return err
		}
	}
	for _, n := range []int{10_000, 100_000} {
		if err := add(ccScale(n, seed, stdout)); err != nil {
			return err
		}
	}
	if err := smokes(false); err != nil {
		return err
	}
	if big {
		if err := add(topoBuild(1_000_000, stdout)); err != nil {
			return err
		}
		if err := smokes(true); err != nil {
			return err
		}
	}

	out.WallNs = time.Since(start).Nanoseconds()
	if budgetSec > 0 {
		out.BudgetNs = int64(budgetSec) * int64(time.Second)
	}
	if err := writeJSON("BENCH_scale.json", out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote BENCH_scale.json (%d records, %v wall)\n",
		len(out.Records), time.Duration(out.WallNs).Round(time.Millisecond))
	if out.BudgetNs > 0 && out.WallNs > out.BudgetNs {
		return fmt.Errorf("scale sweep took %v, over the %ds budget",
			time.Duration(out.WallNs).Round(time.Millisecond), budgetSec)
	}
	return nil
}
