// Command topobench regenerates the paper's tables and figures as markdown
// (-list prints the per-experiment index; the run at -seed 42 is recorded in
// EXPERIMENTS.md, and a test and CI diff against it). It can also time any
// task from the protocol registry on a chosen topology (-task) and write the
// results to BENCH_<task>.json for machine consumption (CI uploads these as
// artifacts). -all times every registered task on the chosen topology and
// writes the combined records to BENCH_all.json, so the per-PR performance
// trajectory accumulates in one artifact.
//
// Usage:
//
//	topobench -list
//	topobench -run all -seed 42
//	topobench -run E1,E8
//	topobench -task sort -topo twotier -n 100000 -reps 5 -workers 4
//	topobench -task triangle -topo caterpillar -n 20000 -reps 3
//	topobench -all -n 20000 -reps 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"topompc"
	"topompc/internal/cliutil"
	"topompc/internal/exper"
	"topompc/internal/obs"
	"topompc/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchConfig is the shared configuration of the task-timing modes.
type benchConfig struct {
	topo, place      string
	n, reps, workers int
	seed             uint64
	// tracer, when non-nil, records every timed run, and the topology
	// build as one span on the buildTid lane, into one flight-recorder
	// trace.
	tracer   *obs.Trace
	buildTid int64
}

// run executes the command with the given arguments and streams; it
// returns the process exit code. Split from main so the flag handling and
// output are testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs     = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		seed       = fs.Uint64("seed", 42, "random seed (fixed seed reproduces every number)")
		list       = fs.Bool("list", false, "list experiments and exit")
		task       = fs.String("task", "", "registry task to time instead of experiments (see toposim -list-tasks); writes BENCH_<task>.json")
		all        = fs.Bool("all", false, "time every registry task on -topo and write combined BENCH_all.json")
		topo       = fs.String("topo", "twotier", "topology for -task/-all: star:PxW, twotier, fattree, caterpillar, fattree-taper, caterpillar-grade, mesh, ring-of-racks, clos, fanout, or @file.json (tree or general network)")
		n          = fs.Int("n", 100000, "input size for -task/-all")
		place      = fs.String("place", "uniform", "placement for -task/-all: uniform, zipf, oneheavy, single")
		reps       = fs.Int("reps", 3, "timed repetitions for -task/-all")
		workers    = fs.Int("workers", 0, "goroutine budget for -task/-all (0 = all CPUs)")
		scale      = fs.Bool("scale", false, "run the data-plane scale sweep (exchange + cc at 10⁴/10⁵, 10⁵-node cc smoke) and write BENCH_scale.json")
		big        = fs.Bool("scale-big", false, "with -scale: extend to the 10⁶-node topology build and the ≈10⁷-edge cc run")
		budget     = fs.Int("budget", 0, "with -scale: wall-clock budget in seconds (0 = none); exceeding it fails the run")
		tracePath  = fs.String("trace", "", "with -task/-all: record a flight-recorder trace across all timed runs and write Chrome trace-event JSON to this file")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	stopProfiles, err := cliutil.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "topobench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "topobench: writing profiles: %v\n", err)
		}
	}()

	cfg := benchConfig{
		topo: *topo, place: *place, n: *n, reps: *reps,
		workers: *workers, seed: *seed,
	}
	if *tracePath != "" {
		cfg.tracer = obs.NewTrace()
		cfg.buildTid = cfg.tracer.NewTid("topology build")
	}
	// finish writes the accumulated trace on a successful task-timing exit.
	finish := func(code int) int {
		if code == 0 && cfg.tracer != nil {
			if err := cfg.tracer.WriteFile(*tracePath); err != nil {
				fmt.Fprintf(stderr, "topobench: writing trace: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote trace %s (%d events)\n", *tracePath, cfg.tracer.Len())
		}
		return code
	}

	// fail reports a task-timing error; a bad -place is a usage error.
	fail := func(err error) int {
		fmt.Fprintf(stderr, "topobench: %v\n", err)
		if errors.Is(err, cliutil.ErrUnknownPlacement) {
			return 2
		}
		return 1
	}

	if *scale || *big {
		if err := runScale(*seed, *big, *budget, *workers, stdout); err != nil {
			fmt.Fprintf(stderr, "topobench: %v\n", err)
			return 1
		}
		return 0
	}
	if *all {
		if *task != "" {
			fmt.Fprintln(stderr, "topobench: -all conflicts with -task (it times every task and writes BENCH_all.json)")
			return 2
		}
		if err := timeAll(cfg, stdout); err != nil {
			return fail(err)
		}
		return finish(0)
	}
	if *task != "" {
		if err := timeTask(*task, cfg, stdout); err != nil {
			return fail(err)
		}
		return finish(0)
	}

	if *list {
		for _, e := range exper.All() {
			fmt.Fprintf(stdout, "%-4s %-70s [%s]\n", e.ID, e.Title, e.Paper)
		}
		return 0
	}

	var selected []exper.Experiment
	if *runIDs == "all" {
		selected = exper.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := exper.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "topobench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		fmt.Fprintf(stdout, "## %s — %s\n\nRegenerates: %s\n\n", e.ID, e.Title, e.Paper)
		tables, err := e.Run(*seed)
		if err != nil {
			fmt.Fprintf(stderr, "topobench: %s: %v\n", e.ID, err)
			return 1
		}
		for _, tb := range tables {
			fmt.Fprintln(stdout, tb.Markdown())
		}
	}
	return 0
}

// benchRecord is the machine-readable result of one task timing run,
// serialized to BENCH_<task>.json (or a BENCH_all.json entry).
type benchRecord struct {
	Task       string  `json:"task"`
	Topo       string  `json:"topo"`
	Place      string  `json:"place"`
	N          int     `json:"n"`
	Nodes      int     `json:"nodes"`
	Workers    int     `json:"workers"`
	Seed       uint64  `json:"seed"`
	Reps       int     `json:"reps"`
	RepNs      []int64 `json:"rep_ns"`
	BestNs     int64   `json:"best_ns"`
	MelemPerS  float64 `json:"melem_per_s"`
	Rounds     int     `json:"rounds"`
	Cost       float64 `json:"cost"`
	LowerBound float64 `json:"lower_bound"`
	Ratio      float64 `json:"ratio"`
	Elements   int64   `json:"elements"`
	Summary    string  `json:"summary"`
	// Metrics is the flight-recorder registry snapshot accumulated over
	// all reps of the run (rounds, shipped elements, combining counters).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// buildTree builds the configured topology, in one topology.build span
// when tracing.
func buildTree(cfg benchConfig) (*topology.Tree, error) {
	var build obs.Span
	if cfg.tracer != nil {
		build = obs.Begin(cfg.tracer, cfg.buildTid, "build "+cfg.topo, "topology.build")
	}
	tree, err := cliutil.ParseTopo(cfg.topo)
	build.End(nil)
	return tree, err
}

// timeOne runs one registry task on tree cfg.reps times and reports model
// cost next to wall-clock time, exercising the exchange-plan runtime end to
// end.
func timeOne(spec topompc.Task, tree *topology.Tree, cfg benchConfig, stdout io.Writer) (benchRecord, error) {
	reps := cfg.reps
	if reps < 1 {
		reps = 1
	}
	cluster := topompc.NewCluster(tree)
	reg := obs.NewRegistry()
	execOpts := topompc.ExecOptions{Workers: cfg.workers, Metrics: reg}
	// The tracer goes into the interface-typed option through a nil check,
	// so a disabled recorder stays a nil interface, not a typed nil.
	if cfg.tracer != nil {
		execOpts.Tracer = cfg.tracer
	}
	cluster.SetExecOptions(execOpts)
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	placer, err := cliutil.Placer(cfg.place, int64(cfg.seed))
	if err != nil {
		return benchRecord{}, fmt.Errorf("-place: %w", err)
	}
	in, err := cliutil.TaskData(spec, rng, placer, cluster.NumNodes(), cfg.n, 0, 0, cfg.seed)
	if err != nil {
		return benchRecord{}, err
	}

	fmt.Fprintf(stdout, "%s on %s: n=%d nodes=%d workers=%d reps=%d\n",
		spec.Name, cfg.topo, cfg.n, cluster.NumNodes(), cfg.workers, reps)
	rec := benchRecord{
		Task: spec.Name, Topo: cfg.topo, Place: cfg.place, N: cfg.n,
		Nodes: cluster.NumNodes(), Workers: cfg.workers, Seed: cfg.seed, Reps: reps,
	}
	var best time.Duration
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		res, err := cluster.RunTask(spec.Name, in)
		elapsed := time.Since(start)
		if err != nil {
			return benchRecord{}, err
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
		rec.RepNs = append(rec.RepNs, elapsed.Nanoseconds())
		rec.Rounds = res.Cost.Rounds
		rec.Cost = res.Cost.Cost
		rec.LowerBound = res.Cost.LowerBound
		// A zero instance bound makes the ratio +Inf, which JSON cannot
		// encode; report 0 for "no finite ratio", in both outputs.
		if r := res.Cost.Ratio(); !math.IsInf(r, 0) {
			rec.Ratio = r
		} else {
			rec.Ratio = 0
		}
		rec.Elements = res.Cost.Elements
		rec.Summary = res.Summary
		fmt.Fprintf(stdout, "  rep %d: %v  cost=%.3f  ratio=%.3f  [%s]\n",
			rep+1, elapsed.Round(time.Microsecond), res.Cost.Cost, rec.Ratio, res.Summary)
	}
	rec.BestNs = best.Nanoseconds()
	rec.MelemPerS = float64(cfg.n) / best.Seconds() / 1e6
	rec.Metrics = reg.Snapshot()
	fmt.Fprintf(stdout, "best: %v (%.1f Melem/s)\n", best.Round(time.Microsecond), rec.MelemPerS)
	return rec, nil
}

// timeTask times one named task and writes BENCH_<task>.json.
func timeTask(name string, cfg benchConfig, stdout io.Writer) error {
	spec, ok := topompc.LookupTask(name)
	if !ok {
		return fmt.Errorf("unknown task %q (see toposim -list-tasks)", name)
	}
	tree, err := buildTree(cfg)
	if err != nil {
		return err
	}
	rec, err := timeOne(spec, tree, cfg, stdout)
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", name)
	if err := writeJSON(path, rec); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// benchAll is the combined record of an -all sweep, one entry per
// registered task, serialized to BENCH_all.json.
type benchAll struct {
	Host    benchHost     `json:"host"`
	Topo    string        `json:"topo"`
	Place   string        `json:"place"`
	N       int           `json:"n"`
	Seed    uint64        `json:"seed"`
	Records []benchRecord `json:"records"`
}

// timeAll times every registered task on the configured fixture, built
// once, and writes the combined BENCH_all.json.
func timeAll(cfg benchConfig, stdout io.Writer) error {
	tree, err := buildTree(cfg)
	if err != nil {
		return err
	}
	out := benchAll{Host: thisHost(), Topo: cfg.topo, Place: cfg.place, N: cfg.n, Seed: cfg.seed}
	for _, spec := range topompc.Tasks() {
		rec, err := timeOne(spec, tree, cfg, stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		out.Records = append(out.Records, rec)
	}
	if err := writeJSON("BENCH_all.json", out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote BENCH_all.json (%d tasks)\n", len(out.Records))
	return nil
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
