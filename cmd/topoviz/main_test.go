package main

import (
	"strings"
	"testing"
)

func TestRunWritesAllSections(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-topo", "twotier"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	for _, section := range []string{
		"== topology ==",
		"== G† (Figure 3 / Lemma 4) ==",
		"== α/β edges",
		"== balanced partition (Algorithm 3 / Definition 1) ==",
		"== placement engine (internal/core/place) ==",
		"== cartesian square packing (Figure 4 / Algorithm 5) ==",
	} {
		if !strings.Contains(out.String(), section) {
			t.Errorf("output missing section %q", section)
		}
	}
	if !strings.Contains(out.String(), "capacity weights:") {
		t.Error("output missing capacity weights")
	}
}

// TestRunHierarchySection: the default twotier (graded 4/2/1 uplinks) has
// a depth-2 weak-cut hierarchy, and the placement section must print
// every level with its cut threshold, blocks, and combiners.
func TestRunHierarchySection(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-topo", "twotier"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "weak-cut hierarchy: depth 2") {
		t.Errorf("output missing hierarchy depth:\n%s", s)
	}
	for _, want := range []string{
		"level 0 (weak cut: edges below 2)",
		"level 1 (weak cut: edges below 4)",
		"(combining pays)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// A bandwidth-uniform topology reports no hierarchy instead.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-topo", "star:4x2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "weak-cut hierarchy: none") {
		t.Errorf("uniform star should report no hierarchy:\n%s", out.String())
	}
}

func TestRunCombiningBlocksOnSkewedTopo(t *testing.T) {
	// The caterpillar fixture has weak spine ends: its hierarchy's deepest
	// level prints the combining blocks, each with its combiner.
	var out, errOut strings.Builder
	if code := run([]string{"-topo", "caterpillar"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "weak-cut hierarchy: depth") {
		t.Errorf("caterpillar output missing the hierarchy report:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "combiner") {
		t.Errorf("block report should name each block's combiner:\n%s", out.String())
	}
}

func TestUnknownTopology(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-topo", "@no-such-file.json"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "topoviz:") {
		t.Errorf("stderr should carry the command prefix: %s", errOut.String())
	}
}

func TestBadFlag(t *testing.T) {
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

func TestLoadsMismatch(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-topo", "twotier", "-loads", "1,2,3"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "compute nodes") {
		t.Errorf("stderr should explain the mismatch: %s", errOut.String())
	}
}

func TestBadLoadValue(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-topo", "star:2x1", "-loads", "10,abc"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}
