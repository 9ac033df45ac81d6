package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"topompc/internal/obs"
)

// TestTraceFlagWritesValidTrace runs one timed task with the flight
// recorder attached and checks the trace file validates against the
// schema and the BENCH record carries the metrics snapshot.
func TestTraceFlagWritesValidTrace(t *testing.T) {
	chtmp(t)
	var out, errOut strings.Builder
	code := run([]string{"-task", "cc", "-topo", "caterpillar-grade", "-n", "900", "-reps", "1",
		"-json", "-trace", "trace.json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile("trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceJSON(data); err != nil {
		t.Fatalf("trace fails schema check: %v", err)
	}
	if !strings.Contains(out.String(), "wrote trace trace.json") {
		t.Errorf("output should announce the trace file:\n%s", out.String())
	}

	bench, err := os.ReadFile("BENCH_cc.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(bench, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Metrics["netsim.rounds"] <= 0 {
		t.Errorf("record should carry a metrics snapshot with netsim.rounds, got %v", rec.Metrics)
	}
	if rec.Metrics["graph.cc.phases"] <= 0 {
		t.Errorf("cc record should count Borůvka phases, got %v", rec.Metrics)
	}
}

// TestCompareAllPassAndFail replays -compare against two doctored copies
// of a just-recorded baseline: one with absurdly slow timings (every task
// is now an improvement, so the run must pass and confirm the baseline's
// fixture was used) and one claiming every task ran in 1ns (everything
// regresses >25%, so the run must exit non-zero). Doctoring in both
// directions keeps the test deterministic where real wall-clock deltas
// would be noise.
func TestCompareAllPassAndFail(t *testing.T) {
	chtmp(t)
	var out, errOut strings.Builder
	if code := run([]string{"-all", "-topo", "star:4x2", "-n", "700", "-reps", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("baseline -all: exit code %d, stderr: %s", code, errOut.String())
	}
	if err := os.Mkdir("base", 0o755); err != nil {
		t.Fatal(err)
	}
	var base benchAll
	data, err := os.ReadFile("BENCH_all.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove("BENCH_all.json"); err != nil {
		t.Fatal(err)
	}

	doctored := base
	doctored.Records = append([]benchRecord(nil), base.Records...)
	for i := range doctored.Records {
		doctored.Records[i].BestNs = int64(time.Hour)
	}
	if err := writeJSON(filepath.Join("base", "BENCH_all.json"), doctored); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-compare", "base", "-reps", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("-compare vs slow baseline: exit code %d\nstdout: %s\nstderr: %s",
			code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "compare: OK") {
		t.Errorf("output should report the compare verdict:\n%s", out.String())
	}
	// The rerun must use the baseline's fixture, not the flag defaults.
	if !strings.Contains(out.String(), "topo=star:4x2") || !strings.Contains(out.String(), "n=700") {
		t.Errorf("compare should rerun the baseline's fixture:\n%s", out.String())
	}

	for i := range doctored.Records {
		doctored.Records[i].BestNs = 1
	}
	if err := writeJSON(filepath.Join("base", "BENCH_all.json"), doctored); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-compare", "base", "-reps", "1"}, &out, &errOut); code != 1 {
		t.Fatalf("-compare vs doctored baseline: exit code %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("output should mark the regressions FAIL:\n%s", out.String())
	}
}

// TestCompareConflictsAndMissingBaseline covers the flag-conflict and
// missing-file error paths of -compare.
func TestCompareConflictsAndMissingBaseline(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-compare", "base", "-task", "sort"}, &out, &errOut); code != 2 {
		t.Fatalf("-compare -task: exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "conflicts") {
		t.Errorf("stderr should explain the conflict: %s", errOut.String())
	}

	chtmp(t)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-compare", "no-such-dir"}, &out, &errOut); code != 1 {
		t.Fatalf("-compare missing dir: exit code %d, want 1", code)
	}
}

// TestCompareScaleMatchesByNameAndSize exercises compareScale directly
// with synthetic records: a clean pass, a warning, a failure, and a
// record with no baseline entry.
func TestCompareScaleMatchesByNameAndSize(t *testing.T) {
	chtmp(t)
	base := benchScale{Seed: 1, Records: []scaleRecord{
		{Name: "exchange", Size: 10_000, NsPerOp: 1000},
		{Name: "cc", Size: 10_000, NsPerOp: 1000},
	}}
	if err := writeJSON("BENCH_scale.json", base); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	cur := benchScale{Seed: 1, Records: []scaleRecord{
		{Name: "exchange", Size: 10_000, NsPerOp: 1050}, // +5%: fine
		{Name: "cc", Size: 10_000, NsPerOp: 1150},       // +15%: warn
		{Name: "cc-big", Size: 1_000_000, NsPerOp: 9},   // not in baseline: skipped
	}}
	if err := compareScale(".", cur, &out); err != nil {
		t.Fatalf("warn-level deltas should not fail: %v\n%s", err, out.String())
	}
	for _, want := range []string{"WARN", "1 warning", "no baseline entry", "1 record(s) had no baseline"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	cur.Records[1].NsPerOp = 1300 // +30%: fail
	if err := compareScale(".", cur, &out); err == nil {
		t.Fatalf("a >25%% regression should return an error:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("output should mark the regression FAIL:\n%s", out.String())
	}
}

// TestPairedSpeedupNeedsTheCPUs: a workers=w row carries a speedup only when
// the machine has w CPUs to run the workers on; otherwise the field stays
// out of the record and the sweep says why.
func TestPairedSpeedupNeedsTheCPUs(t *testing.T) {
	var out strings.Builder
	if got := pairedSpeedup("cc-workers", 1, 2, 2000, 1900, &out); got != 0 {
		t.Errorf("1 CPU, 2 workers: speedup %v, want none", got)
	}
	if !strings.Contains(out.String(), "no speedup recorded, this machine has 1 CPU(s) for 2 workers") {
		t.Errorf("refusal does not say why: %q", out.String())
	}
	data, err := json.Marshal(scaleRecord{Name: "cc-workers", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "speedup") {
		t.Errorf("record without a speedup still emits the field: %s", data)
	}

	out.Reset()
	if got := pairedSpeedup("cc-workers", 2, 2, 2000, 1000, &out); got != 2 {
		t.Errorf("2 CPUs, 2 workers: speedup %v, want 2", got)
	}
	if !strings.Contains(out.String(), "2.00x vs workers=1") {
		t.Errorf("speedup line missing: %q", out.String())
	}
	if got := pairedSpeedup("cc-workers", 8, 2, 2000, 0, &out); got != 0 {
		t.Errorf("an untimed row: speedup %v, want none", got)
	}
}
