package sorting_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"

	"topompc"
	"topompc/internal/cliutil"
	"topompc/internal/core/sorting"
)

// TestPlannedSortsOnGoldenRows runs both planned sorts on the inputs of
// their rows of the golden grid (testdata/golden_costs.json, drawn as the
// module root's harness draws them): each costs exactly the least of its
// candidates run alone, and that cost and round count are the recorded ones.
func TestPlannedSortsOnGoldenRows(t *testing.T) {
	raw, err := os.ReadFile("../../../testdata/golden_costs.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct {
		Rounds int     `json:"rounds"`
		Cost   float64 `json:"cost"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, fixture := range sorting.FixtureTrees() {
		topo, tr, err := fixture()
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		for _, place := range []string{"uniform", "zipf"} {
			for _, task := range []string{"sort", "sort-aware"} {
				key := task + "/" + topo + "/" + place
				spec, ok := topompc.LookupTask(task)
				if !ok {
					t.Fatalf("no task %q", task)
				}
				seed := fixtureSeed(task, topo, place)
				placer, err := cliutil.Placer(place, int64(seed))
				if err != nil {
					t.Fatal(err)
				}
				in, err := cliutil.TaskData(spec, rand.New(rand.NewSource(int64(seed))), placer, tr.NumCompute(), 2400, 0, 0, seed)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				res := sorting.CheckPlanned(t, key, task, tr, in.Data, in.Seed)
				want, ok := golden[key]
				if !ok {
					t.Fatalf("%s: not in the golden grid", key)
				}
				if got := res.Report.TotalCost(); got != want.Cost || res.Report.NumRounds() != want.Rounds {
					t.Errorf("%s: cost %v in %d rounds, golden %v in %d", key, got, res.Report.NumRounds(), want.Cost, want.Rounds)
				}
			}
		}
	}
}

// fixtureSeed is the golden harness's per-row seed: FNV-1a over the parts,
// each followed by a zero byte.
func fixtureSeed(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprint(h, p)
		h.Write([]byte{0})
	}
	return h.Sum64()
}
