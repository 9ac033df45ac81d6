package main

import (
	"strings"
	"testing"
)

func TestListTasks(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list-tasks"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	for _, name := range []string{"intersect", "sort", "triangle", "cc", "cc-flat", "spanforest"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list-tasks output missing %q:\n%s", name, out.String())
		}
	}
	if !strings.Contains(out.String(), "vs cc-flat") {
		t.Errorf("-list-tasks does not show cc's baseline:\n%s", out.String())
	}
}

// TestUnknownTask: a name the task table does not hold, whether it never
// did or no longer does (cc-fast), fails with an error naming it.
func TestUnknownTask(t *testing.T) {
	for _, name := range []string{"no-such-task", "cc-fast"} {
		t.Run(name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run([]string{"-task", name}, &out, &errOut); code != 1 {
				t.Fatalf("exit code %d, want 1", code)
			}
			if !strings.Contains(errOut.String(), "unknown task") || !strings.Contains(errOut.String(), name) {
				t.Errorf("stderr should name the unknown task: %s", errOut.String())
			}
		})
	}
}

// TestUnknownPlacement: a mistyped -place is a usage error naming the
// choices, reported before anything runs or prints — it used to run uniform.
func TestUnknownPlacement(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-task", "sort", "-place", "zipff"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `"zipff"`) || !strings.Contains(errOut.String(), "uniform, zipf, oneheavy, single") {
		t.Errorf("stderr should name the placement and list the choices: %s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("nothing should run: stdout %q", out.String())
	}
}

func TestUnknownFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "Usage") {
		t.Errorf("stderr should print usage: %s", errOut.String())
	}
}

func TestHelpExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-topo") {
		t.Errorf("help should document the flags: %s", errOut.String())
	}
}

func TestUnknownTopology(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-topo", "moebius"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "moebius") {
		t.Errorf("stderr should name the topology: %s", errOut.String())
	}
}

func TestInvalidSize(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-task", "sort", "-n", "0"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "positive") {
		t.Errorf("stderr should explain the size constraint: %s", errOut.String())
	}
}

func TestRunTaskEndToEnd(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-topo", "twotier", "-task", "cc", "-n", "600", "-edges"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"topology:", "cc: ", "components=", "lower bound:", "per-link utilization"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
