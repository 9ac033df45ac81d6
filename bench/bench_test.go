package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"topompc/internal/obs"
)

// declared is the part of BENCHMARK.json the smoke compares against.
type declared struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames fails unless the run emitted exactly the declared metrics,
// each under its declared unit and a well-formed name.
func checkNames(t *testing.T, res *runResult, want []declaredMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json declares %d", res.Workload, res.Trace, len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s trace=%v: declared metric %q was not emitted", res.Workload, res.Trace, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", res.Workload, d.Name, m.Unit, d.Unit)
		case m.Value == nil && m.Reason == "":
			t.Errorf("%s: %s is null without a reason", res.Workload, d.Name)
		case m.Value != nil && (math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0)):
			t.Errorf("%s: %s = %v", res.Workload, d.Name, *m.Value)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
	}
}

// TestSmoke is the benchmark's CI: every workload at 1/100 scale, both
// kinds of run, in a few seconds.
func TestSmoke(t *testing.T) {
	d := loadDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, workloadNames)
	}

	const scale, seconds = 0.01, 0.05
	out := t.TempDir()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			timed, err := runTimed(name, 1, scale, seconds)
			if err != nil {
				t.Fatal(err)
			}
			if timed.Failed != 0 || timed.Attempted == 0 {
				t.Fatalf("timed run: %d of %d ops failed: %v", timed.Failed, timed.Attempted, timed.Failures)
			}
			if len(timed.PassMS) < minPasses || len(timed.SetupS) != setupRepeats {
				t.Errorf("timed run: %d passes and %d set-ups, want at least %d and exactly %d", len(timed.PassMS), len(timed.SetupS), minPasses, setupRepeats)
			}
			checkNames(t, timed, d.EndToEnd)
			for _, m := range d.EndToEnd {
				if v := timed.Metrics[m.Name].Value; v == nil || *v <= 0 {
					t.Errorf("end-to-end metric %s must be positive, got %s", m.Name, fmtMetric(timed.Metrics[m.Name]))
				}
			}
			for _, m := range exact {
				if _, ok := timed.Metrics[m]; !ok {
					t.Errorf("exact metric %s is not an end-to-end metric", m)
				}
			}

			traced, err := runTraced(name, 1, scale, seconds, out)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 {
				t.Fatalf("traced run: %d of %d ops failed: %v", traced.Failed, traced.Attempted, traced.Failures)
			}
			checkNames(t, traced, d.PerLayer)
			val := func(k string) float64 { return *traced.Metrics[k].Value }
			if sum, pass := val("core.protocol_ms")+val("lowerbound.bound_ms")+val("registry.verify_glue_ms"), traced.TracedPassMS; math.Abs(sum-pass) > 1e-6*pass {
				t.Errorf("protocol + bound + glue = %v ms, traced pass = %v ms", sum, pass)
			}
			data, err := os.ReadFile(filepath.Join(out, "trace_"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateTraceJSON(data); err != nil { // what toposim -check-trace runs
				t.Errorf("trace: %v", err)
			}

			// Another seed: other inputs, the same names. The same seed:
			// the same inputs and the same simulated numbers.
			other, err := runTimed(name, 2, scale, seconds)
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, other, d.EndToEnd)
			if other.Fingerprint == timed.Fingerprint {
				t.Errorf("seeds 1 and 2 generated the same inputs (%s)", timed.Fingerprint)
			}
			if traced.Fingerprint != timed.Fingerprint {
				t.Errorf("seed 1 generated %s in one run and %s in another", timed.Fingerprint, traced.Fingerprint)
			}
			for i := range timed.Ops {
				if a, b := timed.Ops[i].modelNums, traced.Ops[i].modelNums; a.Cost != b.Cost || a.Rounds != b.Rounds || a.Messages != b.Messages || a.Elements != b.Elements {
					t.Errorf("op %s: model numbers %+v in one run, %+v in another", timed.Ops[i].Name, a, b)
				}
			}
		})
	}
}

// TestFlags pins the command line to the contract's four arguments and
// -agree: nothing on it may change an input size or a path, or a result
// could carry the declared names at undeclared sizes.
func TestFlags(t *testing.T) {
	for _, name := range []string{"-scale", "-passes", "-out", "-spec", "-detail"} {
		if code := run([]string{name, "1"}, io.Discard, io.Discard); code != 2 {
			t.Errorf("%s: exit code %d, want 2 (unknown flag)", name, code)
		}
	}
}

func TestTail(t *testing.T) {
	if _, _, ok := tail(make([]float64, 10)); ok {
		t.Error("ten samples cannot have ten beyond a percentile")
	}
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(30 - i)
	}
	p, v, ok := tail(xs)
	if !ok || v != 20 || math.Abs(p-100*20.0/30) > 1e-9 {
		t.Errorf("tail of 1..30 = p%v %v %v, want p66.7 = 20 (ten samples beyond)", p, v, ok)
	}
}
