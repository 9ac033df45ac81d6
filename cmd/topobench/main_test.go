package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topompc"
)

// chtmp moves the test into a temp dir so BENCH_*.json files land there.
func chtmp(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

func TestListExperiments(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	for _, id := range []string{"E1", "X3", "X5"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %s:\n%s", id, out.String())
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-run", "E99"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "E99") {
		t.Errorf("stderr should name the experiment: %s", errOut.String())
	}
}

func TestUnknownTask(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-task", "no-such-task"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "no-such-task") {
		t.Errorf("stderr should name the task: %s", errOut.String())
	}
}

func TestUnknownFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
}

func TestAllConflictsWithTask(t *testing.T) {
	for _, args := range [][]string{{"-all", "-task", "sort"}, {"-all", "-json"}} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit code %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "conflicts") {
			t.Errorf("%v: stderr should explain the conflict: %s", args, errOut.String())
		}
	}
}

// TestUnknownPlacement: a mistyped -place is a usage error naming the
// choices under -task and -all alike; it used to time the uniform placement
// and record the mistyped name in the BENCH file.
func TestUnknownPlacement(t *testing.T) {
	chtmp(t)
	for _, args := range [][]string{{"-task", "sort", "-place", "zipff"}, {"-all", "-place", "zipff"}} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit code %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), `"zipff"`) || !strings.Contains(errOut.String(), "uniform, zipf, oneheavy, single") {
			t.Errorf("%v: stderr should name the placement and list the choices: %s", args, errOut.String())
		}
		if files, _ := filepath.Glob("BENCH_*.json"); len(files) != 0 {
			t.Errorf("%v: wrote %v", args, files)
		}
	}
}

// TestTaskJSONShape times one task with -json and checks the BENCH file's
// machine-readable shape.
func TestTaskJSONShape(t *testing.T) {
	chtmp(t)
	var out, errOut strings.Builder
	code := run([]string{"-task", "intersect", "-topo", "star:4x2", "-n", "2000", "-reps", "2", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile("BENCH_intersect.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Task != "intersect" || rec.Topo != "star:4x2" || rec.N != 2000 ||
		rec.Reps != 2 || len(rec.RepNs) != 2 || rec.BestNs <= 0 || rec.Rounds < 1 ||
		rec.Cost <= 0 || rec.Summary == "" {
		t.Errorf("unexpected record: %+v", rec)
	}
}

// TestAllWritesCombinedJSON runs -all and checks BENCH_all.json covers
// every registered task.
func TestAllWritesCombinedJSON(t *testing.T) {
	chtmp(t)
	var out, errOut strings.Builder
	code := run([]string{"-all", "-n", "900", "-reps", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile("BENCH_all.json")
	if err != nil {
		t.Fatal(err)
	}
	var all benchAll
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatal(err)
	}
	tasks := topompc.Tasks()
	if len(all.Records) != len(tasks) {
		t.Fatalf("%d records, want one per task (%d)", len(all.Records), len(tasks))
	}
	for i, spec := range tasks {
		rec := all.Records[i]
		if rec.Task != spec.Name {
			t.Errorf("record %d is %q, want %q", i, rec.Task, spec.Name)
		}
		if rec.BestNs <= 0 || rec.Summary == "" {
			t.Errorf("record %q incomplete: %+v", rec.Task, rec)
		}
	}
	// No stray per-task files in -all mode.
	strays, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(strays) != 1 {
		t.Errorf("expected only BENCH_all.json, found %v", strays)
	}
}

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md with the current experiment output")

// TestExperimentsMatchRecorded pins the reproduction: `topobench -run all
// -seed 42 -format md`, every protocol run verified and held to its table's
// claim along the way, must print EXPERIMENTS.md byte for byte. A protocol,
// bound or table change shows up as a reviewed diff of the paper's tables;
// after an intended one, regenerate with
//
//	go test ./cmd/topobench -run TestExperimentsMatchRecorded -update
func TestExperimentsMatchRecorded(t *testing.T) {
	const recorded = "../../EXPERIMENTS.md"
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "all", "-seed", "42", "-format", "md"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if *update {
		if err := os.WriteFile(recorded, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(recorded)
	if err != nil {
		t.Fatalf("reading the recorded run (rerun with -update to create it): %v", err)
	}
	got := out.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("EXPERIMENTS.md line %d differs (rerun with -update after an intended change):\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, EXPERIMENTS.md %d (rerun with -update after an intended change)", len(gotLines), len(wantLines))
}
