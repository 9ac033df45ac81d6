package exper

import (
	"errors"
	"strings"
	"testing"

	"topompc"
	"topompc/internal/core/sorting"
	"topompc/internal/topology"
)

var wantIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "A1", "A2", "A3", "A4", "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8"}

func TestAllRegistered(t *testing.T) {
	all := All()
	if len(all) != len(wantIDs) {
		t.Fatalf("%d experiments listed, want %d", len(all), len(wantIDs))
	}
	for i, e := range all {
		if e.ID != wantIDs[i] {
			t.Errorf("All()[%d] = %s, want %s", i, e.ID, wantIDs[i])
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s missing metadata", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Error("E1 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id found")
	}
}

// TestAllExperimentsRunQuick executes every experiment end to end at a seed
// other than the recorded one: the driver verifies every protocol run and
// holds it to its table's claim, so this is a broad integration test of the
// whole stack. The name dates from when it ran reduced sweeps.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(7)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Headers) == 0 || len(tb.Rows) == 0 {
					t.Errorf("table %q incomplete", tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Headers) {
						t.Errorf("table %q: row width %d != header width %d", tb.Title, len(row), len(tb.Headers))
					}
				}
				if !strings.Contains(tb.Markdown(), "|") {
					t.Error("markdown rendering broken")
				}
			}
		})
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		e, _ := ByID("E2")
		tables, err := e.Run(11)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range tables {
			sb.WriteString(tb.Markdown())
		}
		return sb.String()
	}
	if run() != run() {
		t.Error("E2 is not deterministic for a fixed seed")
	}
}

// TestIDOrdering pins the display order of the list: the paper's E
// experiments, then the A ablations, then the X extensions, each class by
// ascending number, and every id found under its own name.
func TestIDOrdering(t *testing.T) {
	prevClass, prevNum := 0, 0
	for _, e := range All() {
		class := strings.Index("EAX", e.ID[:1])
		num := 0
		for _, d := range e.ID[1:] {
			num = num*10 + int(d-'0')
		}
		if class < 0 || class < prevClass || (class == prevClass && num <= prevNum) {
			t.Errorf("%s is out of E → A → X order", e.ID)
		}
		prevClass, prevNum = class, num
		if got, ok := ByID(e.ID); !ok || got.Title != e.Title {
			t.Errorf("ByID(%s) does not find the listed experiment", e.ID)
		}
	}
}

// fakeTask returns a typed result with the given cost accounting, as a
// verified pipeline would.
func fakeTask(c topompc.Cost) task {
	return task{name: "fake", run: func(*topology.Tree, input, uint64) (any, error) {
		return &topompc.SortResult{Cost: c}, nil
	}}
}

func noInput(int) (input, error) { return input{}, nil }

// TestCellAboveCeilingFails feeds the driver cells on either side of a
// table's ceiling: the one above must come back as ErrClaim naming the table
// and the cell, and must stop the table.
func TestCellAboveCeilingFails(t *testing.T) {
	run := Table{Title: "T1: a table", Ceiling: Ceiling{Rounds: 4, Ratio: 2}}
	cost := topompc.Cost{Rounds: 4, Cost: 20, LowerBound: 10}
	cases := []struct {
		name    string
		cost    topompc.Cost
		ceiling Ceiling
		want    string // substring of the error; "" means the cell passes
	}{
		{"at the ceiling", cost, Ceiling{}, ""},
		{"rounds above", topompc.Cost{Rounds: 5, Cost: 20, LowerBound: 10}, Ceiling{}, "5 rounds, ceiling 4"},
		{"ratio above", topompc.Cost{Rounds: 1, Cost: 21, LowerBound: 10}, Ceiling{}, "ratio 2.100, ceiling 2.000"},
		{"cell's own ratio", cost, Ceiling{Ratio: 1.5}, "ratio 2.000, ceiling 1.500"},
		{"cell's own cost", cost, Ceiling{Cost: 19}, "cost 20.0, ceiling 19.0"},
		{"cell's own ratio allows it", topompc.Cost{Rounds: 1, Cost: 25, LowerBound: 10}, Ceiling{Ratio: 3}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			table := run
			m := table.run(cell{name: "here", task: fakeTask(c.cost), ceiling: c.ceiling, in: noInput})
			_, err := finish(table)
			if c.want == "" {
				if err != nil || m.Cost != c.cost.Cost || m.Rounds != c.cost.Rounds {
					t.Fatalf("cell under its ceiling: measure %+v, error %v", m, err)
				}
				return
			}
			if !errors.Is(err, ErrClaim) {
				t.Fatalf("want ErrClaim, got %v", err)
			}
			for _, part := range []string{"T1 ", "here/fake", c.want} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("error %q does not say %q", err, part)
				}
			}
			if m != (measure{}) {
				t.Errorf("failed cell returned %+v", m)
			}
			calls := 0
			table.run(cell{name: "next", in: noInput, task: task{run: func(*topology.Tree, input, uint64) (any, error) {
				calls++
				return &topompc.SortResult{}, nil
			}}})
			if calls != 0 {
				t.Error("a failed table still runs cells")
			}
		})
	}
}

// TestWorstTrialIsKept: every trial is held to the ceiling, the worst ratio
// is the cell's measure, and trial k runs with seed+k.
func TestWorstTrialIsKept(t *testing.T) {
	table := Table{Title: "T2: trials"}
	var seeds []uint64
	byTrial := task{name: "by-trial", run: func(_ *topology.Tree, _ input, seed uint64) (any, error) {
		seeds = append(seeds, seed)
		return &topompc.SortResult{Cost: topompc.Cost{Rounds: 1, Cost: float64(10 + (seed-100)%2*5), LowerBound: 10}}, nil
	}}
	m := table.run(cell{name: "c", task: byTrial, seed: 100, trials: 3, in: noInput})
	if m.Cost != 15 || len(seeds) != 3 || seeds[2] != 102 {
		t.Errorf("worst of three trials: measure %+v, seeds %v", m, seeds)
	}
	table.Ceiling.Ratio = 1.2
	table.run(cell{name: "c", task: byTrial, seed: 100, trials: 3, in: noInput})
	if _, err := finish(table); !errors.Is(err, ErrClaim) {
		t.Errorf("second trial is above the ceiling, got %v", err)
	}
}

// TestFailuresAreNamed: an input or protocol error comes back wrapped with the
// table and the cell, and is not a claim failure; tally and holds are.
func TestFailuresAreNamed(t *testing.T) {
	boom := errors.New("boom")
	table := Table{Title: "T3: errors"}
	table.run(cell{name: "star/zipf", task: fakeTask(topompc.Cost{}), in: func(int) (input, error) { return input{}, boom }})
	_, err := finish(table)
	if !errors.Is(err, boom) || errors.Is(err, ErrClaim) || !strings.HasPrefix(err.Error(), "T3 star/zipf/fake: ") {
		t.Errorf("input error: %v", err)
	}

	table = Table{Title: "T3: errors"}
	ms := table.each("row", nil, 1, noInput,
		task{name: "odd", run: func(*topology.Tree, input, uint64) (any, error) { return 42, nil }}, fakeTask(topompc.Cost{}))
	if _, err := finish(table); err == nil || !strings.Contains(err.Error(), "T3 row/odd: no measure for a int") || len(ms) != 2 {
		t.Errorf("unknown result type: %v", err)
	}

	prop := Table{Title: "T4: property", Headers: []string{"instances", "violations"}}
	prop.tally(30, 0)
	if _, err := finish(prop); err != nil || len(prop.Rows) != 1 {
		t.Errorf("clean tally: %v", err)
	}
	prop.tally(30, 2)
	if _, err := finish(prop); !errors.Is(err, ErrClaim) || !strings.Contains(err.Error(), "T4 2 of 30") {
		t.Errorf("tally with violations: %v", err)
	}
}

// TestExplicitFormVerifies: a protocol's own result goes through its family's
// Verify in the driver, so a tampered output fails the cell.
func TestExplicitFormVerifies(t *testing.T) {
	tree := topo("two-tier")
	in, err := distinctKeys(seeded(3), tree, 4000, zipf)
	if err != nil {
		t.Fatal(err)
	}
	tamper := false
	wts := task{name: "wts", run: func(t *topology.Tree, in input, seed uint64) (any, error) {
		res, err := sorting.WTS(t, in.r, seed)
		if err == nil && tamper {
			for i, frag := range res.PerNode {
				if len(frag) > 0 {
					res.PerNode[i] = frag[1:]
					break
				}
			}
		}
		return res, err
	}}
	table := Table{Title: "T5: explicit"}
	if m := table.run(cell{name: "c", tree: tree, task: wts, seed: 3, in: func(int) (input, error) { return in, nil }}); m.Bound <= 0 || m.Strategy == "" {
		t.Errorf("explicit run not bounded or not reported: %+v", m)
	}
	tamper = true
	table.run(cell{name: "c", tree: tree, task: wts, seed: 3, in: func(int) (input, error) { return in, nil }})
	if _, err := finish(table); err == nil || errors.Is(err, ErrClaim) {
		t.Errorf("a tampered sort must fail verification, got %v", err)
	}
}

// BenchmarkExperiments runs every experiment at the recorded seed, one
// sub-benchmark each (-bench 'Experiments/E3$' picks one); the driver's
// verification runs inside.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range All() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(42); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
