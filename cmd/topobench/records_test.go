package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchdataDir holds the committed records that TestBenchRecordsCurrent
// checks.
const benchdataDir = "../../benchdata"

// maxCheckedSize is the largest BENCH_scale.json row the check reruns. The
// -scale-big rows above it need ≈5.4 GB resident to re-record and are
// exempt.
const maxCheckedSize = 100_000

// histogramSuffixes are the keys a histogram adds to its name in a metrics
// snapshot. ".mean" and ".p50" appear only when it counted something, and
// par.imbalance can count nothing on one CPU, so the check compares the
// instrument names, not the keys.
var histogramSuffixes = []string{".count", ".sum", ".max", ".mean", ".p50"}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// diff adds one problem naming the row and field when the recorded and the
// current figure differ.
func diff(out []string, row, field string, recorded, now any) []string {
	if recorded != now {
		out = append(out, fmt.Sprintf("%s: %s %v recorded, %v now", row, field, recorded, now))
	}
	return out
}

// instruments lists the metric instruments of a snapshot, sorted, each
// histogram once under its own name.
func instruments(snap map[string]float64) []string {
	var names []string
	for key := range snap {
		for _, suf := range histogramSuffixes {
			key = strings.TrimSuffix(key, suf)
		}
		names = append(names, key)
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// allDiffs names every (task, field) where the committed -all sweep want
// differs from the fresh one got, and every task only one of them has. It
// reads the model figures and the metric instruments, never a wall clock
// or a metric value.
func allDiffs(want, got benchAll) []string {
	var out []string
	if want.Host.NumCPU == 0 {
		out = append(out, "BENCH_all.json: no host header")
	}
	gotBy := make(map[string]benchRecord, len(got.Records))
	for _, r := range got.Records {
		gotBy[r.Task] = r
	}
	recorded := make(map[string]bool, len(want.Records))
	for _, w := range want.Records {
		recorded[w.Task] = true
		g, ok := gotBy[w.Task]
		if !ok {
			out = append(out, fmt.Sprintf("BENCH_all.json %s: recorded, but the sweep has no such task", w.Task))
			continue
		}
		row := "BENCH_all.json " + w.Task
		out = diff(out, row, "rounds", w.Rounds, g.Rounds)
		out = diff(out, row, "cost", w.Cost, g.Cost)
		out = diff(out, row, "lower_bound", w.LowerBound, g.LowerBound)
		out = diff(out, row, "elements", w.Elements, g.Elements)
		out = diff(out, row, "summary", w.Summary, g.Summary)
		wi, gi := instruments(w.Metrics), instruments(g.Metrics)
		for _, name := range wi {
			if !slices.Contains(gi, name) {
				out = append(out, fmt.Sprintf("%s: metric %s recorded, no longer emitted", row, name))
			}
		}
		for _, name := range gi {
			if !slices.Contains(wi, name) {
				out = append(out, fmt.Sprintf("%s: metric %s emitted, not recorded", row, name))
			}
		}
	}
	for _, g := range got.Records {
		if !recorded[g.Task] {
			out = append(out, fmt.Sprintf("BENCH_all.json %s: no row for this task", g.Task))
		}
	}
	return out
}

// scaleDiffs names every (row, field) where a BENCH_scale.json smoke row
// of at most maxCheckedSize nodes differs from a fresh run of its probe,
// every such row no probe writes, and every such probe with no row. rerun
// runs a probe; it is called once per probe, and every row of it, whatever
// its worker count, is held to that run. Rows of the benchmarked probes
// (exchange, cc) carry no model figures and are not read.
func scaleDiffs(want benchScale, rerun func(smokeProbe) (scaleRecord, error)) []string {
	var out []string
	fresh := make(map[int]scaleRecord)
	hasRow := make(map[int]bool)
	for _, r := range want.Records {
		if r.Size > maxCheckedSize {
			continue
		}
		row := fmt.Sprintf("BENCH_scale.json %s@%d", r.Name, r.Size)
		if r.Workers > 0 {
			row += fmt.Sprintf("/w%d", r.Workers)
		}
		i := slices.IndexFunc(smokeProbes, func(pr smokeProbe) bool { return pr.name == r.Name && pr.nodes == r.Size })
		if i < 0 {
			if r.Edges != 0 || r.Rounds != 0 || r.Cost != 0 {
				out = append(out, fmt.Sprintf("%s: recorded, but the sweep has no such probe", row))
			}
			continue
		}
		hasRow[i] = true
		g, ok := fresh[i]
		if !ok {
			var err error
			if g, err = rerun(smokeProbes[i]); err != nil {
				out = append(out, fmt.Sprintf("%s: %v", row, err))
				continue
			}
			fresh[i] = g
		}
		out = diff(out, row, "edges", r.Edges, g.Edges)
		out = diff(out, row, "rounds", r.Rounds, g.Rounds)
		out = diff(out, row, "cost", r.Cost, g.Cost)
	}
	for i, pr := range smokeProbes {
		if !hasRow[i] && pr.nodes <= maxCheckedSize {
			out = append(out, fmt.Sprintf("BENCH_scale.json %s@%d: no row for this probe", pr.name, pr.nodes))
		}
	}
	return out
}

// TestBenchRecordsCurrent holds the committed records in benchdata/ to the
// code: it reruns the -all sweep on the fixture in BENCH_all.json's header
// and every smoke probe of at most 10⁵ nodes in BENCH_scale.json, and
// fails naming each row and field whose model figures moved. After an
// intended change, re-record both files as benchdata/README.md says.
func TestBenchRecordsCurrent(t *testing.T) {
	var all benchAll
	readJSON(t, filepath.Join(benchdataDir, "BENCH_all.json"), &all)
	var scale benchScale
	readJSON(t, filepath.Join(benchdataDir, "BENCH_scale.json"), &scale)

	chtmp(t)
	cfg := benchConfig{topo: all.Topo, place: all.Place, n: all.N, reps: 1, seed: all.Seed}
	if err := timeAll(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	var got benchAll
	readJSON(t, "BENCH_all.json", &got)
	problems := allDiffs(all, got)
	problems = append(problems, scaleDiffs(scale, func(pr smokeProbe) (scaleRecord, error) {
		return ccSmoke(pr, scale.Seed, 0, io.Discard)
	})...)
	for _, p := range problems {
		t.Error(p)
	}
	if len(problems) > 0 {
		t.Log("after an intended change, re-record benchdata/ (see benchdata/README.md)")
	}
}

// TestBenchRecordsCheckNamesEachDifference runs the check on doctored
// copies of the committed records, compared with the records themselves,
// and wants each doctored (row, field) named once and nothing else.
func TestBenchRecordsCheckNamesEachDifference(t *testing.T) {
	var all benchAll
	readJSON(t, filepath.Join(benchdataDir, "BENCH_all.json"), &all)
	if got := allDiffs(all, all); len(got) != 0 {
		t.Fatalf("the records differ from themselves: %v", got)
	}
	doctored := all
	doctored.Records = slices.Clone(all.Records)
	doctored.Records[0].Cost++
	doctored.Records[1].Metrics = maps.Clone(all.Records[1].Metrics)
	doctored.Records[1].Metrics["obs.doctored.count"] = 1
	doctored.Records = slices.Delete(doctored.Records, 2, 3)
	doctored.Records = append(doctored.Records, benchRecord{Task: "no-such-task"})
	checkNamed(t, allDiffs(doctored, all), [][]string{
		{all.Records[0].Task + ":", "cost"},
		{all.Records[1].Task + ":", "metric obs.doctored recorded, no longer emitted"},
		{all.Records[2].Task + ":", "no row"},
		{"no-such-task:", "no such task"},
	})

	var scale benchScale
	readJSON(t, filepath.Join(benchdataDir, "BENCH_scale.json"), &scale)
	// The fake rerun answers every probe with its first committed row.
	rerun := func(pr smokeProbe) (scaleRecord, error) {
		for _, r := range scale.Records {
			if r.Name == pr.name && r.Size == pr.nodes {
				return r, nil
			}
		}
		return scaleRecord{}, fmt.Errorf("no committed row")
	}
	if got := scaleDiffs(scale, rerun); len(got) != 0 {
		t.Fatalf("the scale records differ from themselves: %v", got)
	}
	i := slices.IndexFunc(scale.Records, func(r scaleRecord) bool { return r.Name == "cc-workers" && r.Workers == 2 })
	if i < 0 {
		t.Fatal("BENCH_scale.json has no cc-workers row at workers=2")
	}
	docScale := scale
	docScale.Records = slices.Clone(scale.Records)
	docScale.Records[i].Rounds++
	checkNamed(t, scaleDiffs(docScale, rerun), [][]string{{fmt.Sprintf("cc-workers@%d/w2:", scale.Records[i].Size), "rounds"}})
}

// checkNamed wants one problem per entry of want, holding all its parts.
func checkNamed(t *testing.T, problems []string, want [][]string) {
	t.Helper()
	if len(problems) != len(want) {
		t.Errorf("%d problems, want %d:\n%s", len(problems), len(want), strings.Join(problems, "\n"))
	}
	for _, parts := range want {
		if !slices.ContainsFunc(problems, func(p string) bool {
			for _, part := range parts {
				if !strings.Contains(p, part) {
					return false
				}
			}
			return true
		}) {
			t.Errorf("no problem names %q:\n%s", parts, strings.Join(problems, "\n"))
		}
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

// TestContractProbeRefusesGather: a probe that must time the contraction
// fails, naming itself, when graph.CC gathers instead — as it does on a
// small graded caterpillar — and the same probe without the guard runs.
func TestContractProbeRefusesGather(t *testing.T) {
	pr := smokeProbe{name: "contract-guard", nodes: 200, n: 500, p: 4.0 / 500, contract: true}
	if _, err := ccSmoke(pr, 42, 1, io.Discard); err == nil || !strings.Contains(err.Error(), "contract-guard: graph.CC gathered") {
		t.Fatalf("guarded probe on a gathering input: err = %v", err)
	}
	pr.contract = false
	if _, err := ccSmoke(pr, 42, 1, io.Discard); err != nil {
		t.Fatal(err)
	}
}
