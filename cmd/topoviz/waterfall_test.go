package main

import (
	"strings"
	"testing"
)

// TestWaterfallSection runs a task under -task and checks the round
// waterfall renders bars, bottleneck links, and a cost total that matches
// the reported one (both printed from the same run).
func TestWaterfallSection(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-topo", "caterpillar-grade", "-task", "cc", "-n", "800"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"== round waterfall (cc, n=800", "█", "via ", "total cost ", "(reported "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestWaterfallUnknownPlacement: a mistyped -place is a usage error naming
// the choices; it used to render the uniform placement's waterfall.
func TestWaterfallUnknownPlacement(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-task", "sort", "-place", "zipff"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `"zipff"`) || !strings.Contains(errOut.String(), "uniform, zipf, oneheavy, single") {
		t.Errorf("stderr should name the placement and list the choices: %s", errOut.String())
	}
	if strings.Contains(out.String(), "waterfall") {
		t.Errorf("no waterfall should render: %s", out.String())
	}
}

// TestWaterfallUnknownTask fails cleanly for a task not in the registry.
func TestWaterfallUnknownTask(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-task", "no-such-task"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "no-such-task") {
		t.Errorf("stderr should name the task: %s", errOut.String())
	}
}
