package topompc_test

import (
	"slices"
	"strings"
	"testing"
)

// obsImporters are the packages of the module that may import the flight
// recorder: the engine, which records every round, the plan decisions and
// its sinks; the worker pool, which records its shards; the root package,
// whose ExecOptions carry the sinks to the engine; and the commands, which
// create them. A protocol names its rounds (netsim.Exchange.Label) and feeds
// its counters through the engine's registry instead.
var obsImporters = []string{"topompc", "topompc/internal/netsim", "topompc/internal/par"}

// TestObsImportBoundary type-checks every non-test package of the module
// and fails on any, outside obsImporters and cmd/, that imports
// internal/obs.
func TestObsImportBoundary(t *testing.T) {
	c := checkSources(t, ".")
	var importers []string
	for path, cp := range c.done {
		for _, imp := range cp.pkg.Imports() {
			if imp.Path() == "topompc/internal/obs" {
				importers = append(importers, path)
			}
		}
	}
	if len(importers) == 0 {
		t.Fatal("no package imports internal/obs: the check has nothing to hold")
	}
	slices.Sort(importers)
	for _, path := range importers {
		if !slices.Contains(obsImporters, path) && !strings.HasPrefix(path, "topompc/cmd/") {
			t.Errorf("%s imports internal/obs: only the engine, the pool, the root package and the commands record", path)
		}
	}
}
