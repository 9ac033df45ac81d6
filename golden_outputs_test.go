package topompc_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"topompc"
)

// Golden outputs: the golden cost grid pins what the protocols cost; this
// file pins what they return and how many messages they send. Every row of
// primitiveOutputs — the paper's three primitives and the join, aggregate
// and multijoin families — runs on the golden fixtures and the checksum of
// every Result field and of each round's message and element counts is
// compared against testdata/golden_outputs.json, at workers 1 and 8.
// Regenerate with the cost grid's flag:
//
//	go test -run TestGoldenOutputs -update

func goldenOutputsPath() string { return filepath.Join("testdata", "golden_outputs.json") }

func runGoldenOutputs(t *testing.T, workers int) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for _, topo := range fixtureTopos {
		for _, place := range fixturePlacements {
			c := fixtureCluster(t, topo.Name)
			c.SetExecOptions(topompc.ExecOptions{Workers: workers})
			for name, outputs := range primitiveOutputs {
				spec, ok := topompc.LookupTask(name)
				if !ok {
					t.Fatalf("unknown task %s", name)
				}
				key := fmt.Sprintf("%s/%s/%s", name, topo.Name, place)
				sum, err := outputs(c, fixtureInput(t, spec, c, topo.Name, place, goldenN))
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got[key] = fmt.Sprintf("%016x", sum)
			}
		}
	}
	return got
}

func TestGoldenOutputs(t *testing.T) {
	got := runGoldenOutputs(t, 1)
	if *update {
		// json.Marshal sorts map keys.
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenOutputsPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden outputs to %s", len(got), goldenOutputsPath())
	}
	data, err := os.ReadFile(goldenOutputsPath())
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run TestGoldenOutputs -update` to create it): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for workers, got := range map[int]map[string]string{1: got, 8: runGoldenOutputs(t, 8)} {
		if len(got) != len(want) {
			t.Errorf("workers=%d: %d outputs produced, golden file has %d (rerun -update)", workers, len(got), len(want))
		}
		for key, g := range got {
			if w := want[key]; g != w {
				t.Errorf("workers=%d %s: output checksum %s, want %s", workers, key, g, w)
			}
		}
	}
}
