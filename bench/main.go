// Command bench is the repository's benchmark: four workloads, six
// end-to-end metrics (and the failure count every result carries) and an
// outside-in split of every run by layer. It
// measures each layer from outside, by timing calls into its public
// functions; no file outside bench/ knows it exists. README.md explains
// the workloads, the metrics and how to read the output.
//
// Usage (from the root of the checkout):
//
//	bash bench/run.sh --workload graph-dense --seed 1 --seconds 24 --trace 0   # one run, as the driver makes it
//	bash bench/run.sh                                                          # every workload, every metric
//	bash bench/run.sh -agree                                                   # twice, and compare within the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// exact are the simulated end-to-end metrics: two runs of one seed must
// agree on them to the last bit. (BENCHMARK.json declares every metric name
// with its unit, direction and bound; bench_test.go holds the emitted names
// and the declared ones in step.)
var exact = []string{"model_cost_geomean", "model_rounds", "aware_gain_geomean"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run.sh starts the binary at the root of the checkout; these are relative
// to it.
const (
	outDir   = "bench/out"      // traces and result files
	specPath = "BENCHMARK.json" // -agree reads the bounds from it
)

type config struct {
	seed    uint64
	seconds float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	workload := fs.String("workload", "", "run this one workload and print its result as one JSON line (default: all of them, every metric)")
	trace := fs.Int("trace", 0, "with -workload: 0 = timed run, tracing off, end-to-end metrics; 1 = traced run, per-layer metrics")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long the timed passes of one workload measure (split over three slices without -workload)")
	agree := fs.Bool("agree", false, "run the whole benchmark twice and fail when an end-to-end metric differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	var err error
	switch {
	case *workload != "":
		err = runOne(*workload, *trace != 0, cfg, stdout)
	case *agree:
		err = runAgree(cfg, stdout, stderr)
	default:
		_, err = runFull(cfg, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

var errFailedOps = errors.New("operations failed")

// runOne is the run the driver makes: one workload, one JSON object on the
// last line of standard output.
func runOne(name string, trace bool, cfg config, stdout io.Writer) error {
	var res *runResult
	var err error
	if trace {
		res, err = runTraced(name, cfg.seed, 1, cfg.seconds, outDir)
	} else {
		res, err = runTimed(name, cfg.seed, 1, cfg.seconds)
	}
	if err != nil {
		return err
	}
	printResult(stdout, res)
	// The full result (samples, ops, host header) goes to a file; a full run
	// reads its children's results from there.
	if err := writeJSON(detailPath(name, trace), res); err != nil {
		return err
	}
	// The contract's metric objects carry the value and the unit; a null
	// value keeps its reason.
	lineMetrics := map[string]metric{}
	for k, m := range res.Metrics {
		m.Note = ""
		lineMetrics[k] = m
	}
	line := map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": lineMetrics,
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d %w: %s", name, res.Failed, res.Attempted, errFailedOps, strings.Join(res.Failures, "; "))
	}
	return nil
}

func detailPath(workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("run_%s_trace%d.json", workload, t))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fmtMetric(m metric) string {
	if m.Value == nil {
		return "null (" + m.Reason + ")"
	}
	s := strconv.FormatFloat(*m.Value, 'g', 6, 64) + " " + m.Unit
	if m.Note != "" {
		s += "  [" + m.Note + "]"
	}
	return s
}

func printResult(w io.Writer, res *runResult) {
	h := res.Host
	fmt.Fprintf(w, "%s  trace=%v seed=%d scale=%g  %s, NumCPU=%d GOMAXPROCS=%d workers=%d, %s, commit %s\n",
		res.Workload, res.Trace, h.Seed, res.Scale, h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.Workers, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "  inputs %s; %d untraced timed passes; %d of %d ops failed; host.calib_ms p50 %.2f\n",
		res.Fingerprint, len(res.PassMS), res.Failed, res.Attempted, median(res.CalibMS))
	if p, v, ok := tail(res.PassMS); ok {
		fmt.Fprintf(w, "  pass_ms tail: p%.0f = %.6g ms, the highest percentile with ten of the %d passes beyond it\n", p, v, len(res.PassMS))
	} else {
		fmt.Fprintf(w, "  pass_ms tail: none, %d passes leave no percentile with ten samples beyond it\n", len(res.PassMS))
	}
	if res.TracedPassMS > 0 {
		fmt.Fprintf(w, "  traced pass %.6g ms = core.protocol_ms + lowerbound.bound_ms + registry.verify_glue_ms\n", res.TracedPassMS)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-30s %s\n", name, fmtMetric(res.Metrics[name]))
	}
	for _, o := range res.Ops {
		fmt.Fprintf(w, "  op %-20s %9.2f ms  cost %.6g  rounds %d  msgs %d  elems %d  bound %.6g\n",
			o.Name, o.MS, o.Cost, o.Rounds, o.Messages, o.Elements, o.Bound)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// child makes one --workload run in its own process (this same binary),
// exactly as the driver would, and reads its full result back from the
// file such a run writes.
func child(name string, trace bool, seed uint64, seconds float64, stderr io.Writer) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := detailPath(name, trace)
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err // a stale file must not pass for this run's result
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe,
		"-workload", name, "-trace", t,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = stderr
	runErr := cmd.Run() // Run waits for the child to end
	data, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %s): %w", name, t, runErr)
		}
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// fullResult is the whole benchmark: per workload the merged timed slices
// and the traced run.
type fullResult struct {
	Host      hostHeader            `json:"host"`
	Workloads map[string]*runResult `json:"workloads"`
	// CalibBySlice is host.calib_ms per workload and slice: how fast the
	// machine was while each slice ran.
	CalibBySlice map[string][]float64 `json:"host_calib_ms_by_slice"`
}

// timedSlices is how many --workload runs the timed passes of a workload
// are split over in a full run; with minPasses each, a workload gets at
// least 21 timed passes.
const timedSlices = 3

// runFull runs every workload in child processes. The timed passes of a
// workload are split into three slices and the slices of the four
// workloads interleaved (W1 W2 W3 W4, W1 W2 …), so minute-scale drift of a
// shared machine lands on all workloads alike; the traced runs follow.
func runFull(cfg config, stdout, stderr io.Writer) (*fullResult, error) {
	full := &fullResult{
		Host:      newHostHeader(cfg.seed, benchWorkers()),
		Workloads: map[string]*runResult{}, CalibBySlice: map[string][]float64{},
	}
	for s := 0; s < timedSlices; s++ {
		for _, name := range workloadNames {
			fmt.Fprintf(stderr, "bench: %s slice %d/%d\n", name, s+1, timedSlices)
			res, err := child(name, false, cfg.seed, cfg.seconds/timedSlices, stderr)
			if err != nil {
				return nil, err
			}
			full.CalibBySlice[name] = append(full.CalibBySlice[name], median(res.CalibMS))
			if err := mergeSlice(full.Workloads, res); err != nil {
				return nil, err
			}
		}
	}
	failed := 0
	for _, name := range workloadNames {
		fmt.Fprintf(stderr, "bench: %s traced run\n", name)
		traced, err := child(name, true, cfg.seed, cfg.seconds, stderr)
		if err != nil {
			return nil, err
		}
		res := full.Workloads[name]
		res.Attempted, res.Failed = res.Attempted+traced.Attempted, res.Failed+traced.Failed
		res.Failures = append(res.Failures, traced.Failures...)
		for k, m := range traced.Metrics {
			res.Metrics[k] = m
		}
		res.Metrics["fail_share"] = failShare(res.Failed, res.Attempted) // over every run of the workload
		res.TracedPassMS = traced.TracedPassMS
		res.Ops = traced.Ops // the traced run adds the offline bounds
		failed += res.Failed
		printResult(stdout, res)
		fmt.Fprintf(stdout, "  host.calib_ms by slice: %v\n\n", full.CalibBySlice[name])
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), full); err != nil {
		return nil, err
	}
	if failed > 0 {
		return full, fmt.Errorf("%d %w", failed, errFailedOps)
	}
	return full, nil
}

// mergeSlice folds one timed slice into the workload's result: the samples
// pool, and the simulated metrics must be the same in every slice.
func mergeSlice(into map[string]*runResult, s *runResult) error {
	res, ok := into[s.Workload]
	if !ok {
		into[s.Workload] = s
		return nil
	}
	for _, name := range exact {
		if a, b := res.Metrics[name].Value, s.Metrics[name].Value; a == nil || b == nil || *a != *b {
			return fmt.Errorf("%s: %s differs between two slices of one seed (%s vs %s)",
				s.Workload, name, fmtMetric(res.Metrics[name]), fmtMetric(s.Metrics[name]))
		}
	}
	res.Attempted, res.Failed = res.Attempted+s.Attempted, res.Failed+s.Failed
	res.Failures = append(res.Failures, s.Failures...)
	res.SetupS = append(res.SetupS, s.SetupS...)
	res.PassMS = append(res.PassMS, s.PassMS...)
	res.CalibMS = append(res.CalibMS, s.CalibMS...)
	res.PassRSSMB = append(res.PassRSSMB, s.PassRSSMB...)
	res.ExitRSSMB = math.Max(res.ExitRSSMB, s.ExitRSSMB)
	res.hostMetrics()
	return nil
}

// benchSpec is the part of BENCHMARK.json -agree needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAgree runs the whole benchmark twice on the same code and seed and
// prints, per workload and end-to-end metric, both values, the relative
// difference and the bound. Simulated metrics must be identical; the rest
// must sit inside their bounds, and no op may fail.
func runAgree(cfg config, stdout, stderr io.Writer) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	var runs [2]*fullResult
	for i := range runs {
		fmt.Fprintf(stderr, "bench: -agree run %d/2\n", i+1)
		if runs[i], err = runFull(cfg, io.Discard, stderr); err != nil {
			return err
		}
	}
	outside := 0
	fmt.Fprintf(stdout, "%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			a, b := runs[0].Workloads[name].Metrics[m.Name].Value, runs[1].Workloads[name].Metrics[m.Name].Value
			if a == nil || b == nil {
				return fmt.Errorf("%s: %s is missing from a run", name, m.Name)
			}
			diff := math.Abs(*b-*a) / math.Abs(*a)
			bound, verdict := m.Bound, "ok"
			if slices.Contains(exact, m.Name) {
				bound = 0
			}
			if diff > bound {
				outside++
				verdict = "OUTSIDE"
			}
			fmt.Fprintf(stdout, "%-18s %-20s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n", name, m.Name, *a, *b, 100*diff, 100*bound, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d metric pairs differ by more than their bound", outside)
	}
	return nil
}
