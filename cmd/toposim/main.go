// Command toposim runs one task on one topology and prints the per-round
// cost accounting next to the instance lower bound. Any task in the topompc
// task table can be run by name.
//
// Usage:
//
//	toposim -list-tasks
//	toposim -topo star:4x1 -task intersect -sizeR 1000 -sizeS 4000
//	toposim -topo twotier -task sort -n 50000 -place zipf
//	toposim -topo twotier -task sort-aware -n 50000 -place oneheavy
//	toposim -topo caterpillar -task agg-tree2 -n 20000
//	toposim -topo twotier -task aggregate -n 20000 -workers 4
//	toposim -topo twotier -task triangle -n 30000 -edges
//	toposim -topo caterpillar -task starjoin -n 30000 -place zipf
//	toposim -topo twotier -task cc -n 30000 -place zipf
//	toposim -topo @cluster.json -task cartesian -n 4096
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"topompc"
	"topompc/internal/cliutil"
	"topompc/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and streams; it
// returns the process exit code. Split from main so the flag handling and
// output are testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("toposim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topo       = fs.String("topo", "star:4x1", "topology: star:PxW, twotier, fattree, caterpillar, fattree-taper, caterpillar-grade, mesh, ring-of-racks, clos, fanout, or @file.json (tree or general network)")
		task       = fs.String("task", "intersect", "task name from the protocol registry (see -list-tasks)")
		n          = fs.Int("n", 10000, "total input size (pair tasks split it between R and S)")
		sizeR      = fs.Int("sizeR", 0, "pair tasks: |R| (default n/4, or n/2 for equal-pair tasks)")
		sizeS      = fs.Int("sizeS", 0, "pair tasks: |S| (default 3n/4, or n/2 for equal-pair tasks)")
		place      = fs.String("place", "uniform", "placement: uniform, zipf, oneheavy, single")
		seed       = fs.Int64("seed", 42, "random seed")
		workers    = fs.Int("workers", 0, "goroutine budget for planning and accounting (0 = all CPUs)")
		edges      = fs.Bool("edges", false, "print the per-link utilization table")
		listTasks  = fs.Bool("list-tasks", false, "list the task table (name, baseline, description) and exit")
		tracePath  = fs.String("trace", "", "record a flight-recorder trace and write it as Chrome trace-event JSON to this file")
		checkTrace = fs.String("check-trace", "", "validate a Chrome trace-event JSON file against the recorder schema and exit")
		metrics    = fs.Bool("metrics", false, "collect the flight-recorder metrics registry and print its snapshot")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *listTasks {
		for _, t := range topompc.Tasks() {
			baseline := "-"
			if t.Baseline != "" {
				baseline = "vs " + t.Baseline
			}
			fmt.Fprintf(stdout, "%-20s %-22s %s\n", t.Name, baseline, t.Description)
		}
		return 0
	}

	if *checkTrace != "" {
		data, err := os.ReadFile(*checkTrace)
		if err != nil {
			fmt.Fprintf(stderr, "toposim: %v\n", err)
			return 1
		}
		if err := obs.ValidateTraceJSON(data); err != nil {
			fmt.Fprintf(stderr, "toposim: %s: %v\n", *checkTrace, err)
			return 1
		}
		events, err := obs.ParseTraceJSON(data)
		if err != nil {
			fmt.Fprintf(stderr, "toposim: %s: %v\n", *checkTrace, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: valid trace, %d events\n", *checkTrace, len(events))
		return 0
	}

	stopProfiles, err := cliutil.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "toposim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "toposim: writing profiles: %v\n", err)
		}
	}()

	spec, ok := topompc.LookupTask(*task)
	if !ok {
		fmt.Fprintf(stderr, "toposim: unknown task %q (use -list-tasks)\n", *task)
		return 1
	}
	placer, err := cliutil.Placer(*place, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "toposim: -place: %v\n", err)
		return 2
	}

	// Flight recorder: one trace spans the whole invocation, so the topology
	// build — for a general network, its cut-tree compression — lands in
	// the same file as the task's rounds, as one span on its own lane.
	// Assignments into the interface-typed options go through explicit nil
	// checks so a disabled recorder stays a nil interface, not a typed nil.
	var tracer *obs.Trace
	var build obs.Span
	execOpts := topompc.ExecOptions{Workers: *workers}
	if *tracePath != "" {
		tracer = obs.NewTrace()
		execOpts.Tracer = tracer
		build = obs.Begin(tracer, tracer.NewTid("topology build"), "build "+*topo, "topology.build")
	}
	if *metrics {
		execOpts.Metrics = obs.NewRegistry()
	}

	tree, err := cliutil.ParseTopo(*topo)
	build.End(nil)
	if err != nil {
		fmt.Fprintf(stderr, "toposim: %v\n", err)
		return 1
	}
	cluster := topompc.NewCluster(tree)
	cluster.SetExecOptions(execOpts)

	fmt.Fprintln(stdout, "topology:")
	fmt.Fprint(stdout, cluster)
	fmt.Fprintln(stdout)

	rng := rand.New(rand.NewSource(*seed))
	in, err := cliutil.TaskData(spec, rng, placer, cluster.NumNodes(), *n, *sizeR, *sizeS, uint64(*seed))
	if err != nil {
		fmt.Fprintf(stderr, "toposim: %v\n", err)
		return 1
	}

	res, err := cluster.RunTask(spec.Name, in)
	if err != nil {
		fmt.Fprintf(stderr, "toposim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %s\n", spec.Name, res.Summary)
	fmt.Fprint(stdout, res.Report)
	fmt.Fprintf(stdout, "lower bound: %.3f   ratio: %.3f\n", res.Cost.LowerBound, res.Cost.Ratio())
	if *edges {
		fmt.Fprintln(stdout, "\nper-link utilization:")
		fmt.Fprint(stdout, res.Report.EdgeTable())
	}
	if execOpts.Metrics != nil {
		fmt.Fprintln(stdout, "\nmetrics:")
		snap := execOpts.Metrics.Snapshot()
		for _, k := range obs.SnapshotKeys(snap) {
			fmt.Fprintf(stdout, "  %-34s %g\n", k, snap[k])
		}
	}
	if tracer != nil {
		if err := tracer.WriteFile(*tracePath); err != nil {
			fmt.Fprintf(stderr, "toposim: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d events -> %s (load in chrome://tracing or ui.perfetto.dev)\n",
			tracer.Len(), *tracePath)
	}
	return 0
}
