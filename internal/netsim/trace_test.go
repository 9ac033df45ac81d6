package netsim

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"topompc/internal/obs"
	"topompc/internal/topology"
)

// roundEvents filters a trace down to the engine's committed-round spans.
func roundEvents(tc *obs.Trace) []obs.Event {
	var out []obs.Event
	for _, e := range tc.Events() {
		if e.Cat == "netsim.round" {
			out = append(out, e)
		}
	}
	return out
}

// TestExchangeTraceRoundsSumToTotalCost runs a traced exchange workload and
// checks the recorder's core invariant: one complete event per round, in
// round order, whose cost args sum exactly to Report.TotalCost.
func TestExchangeTraceRoundsSumToTotalCost(t *testing.T) {
	tr := benchCaterpillar(t)
	batch := benchTransferBatch(tr, 2048)

	for _, workers := range []int{1, 8} {
		tc := obs.NewTrace()
		e := NewEngine(tr, WithWorkers(workers), WithTracer(tc))
		for r := 0; r < 6; r++ {
			x := e.Exchange()
			planBatch(x, batch[r*128:])
			x.Execute()
		}
		rep := e.Report()

		evs := roundEvents(tc)
		if len(evs) != len(rep.Rounds) {
			t.Fatalf("workers=%d: %d round events, want %d", workers, len(evs), len(rep.Rounds))
		}
		sum := 0.0
		for i, ev := range evs {
			if got := ev.Args["round"].(int); got != i {
				t.Fatalf("workers=%d: event %d carries round index %v", workers, i, ev.Args["round"])
			}
			cost := ev.Args["cost"].(float64)
			if cost != rep.Rounds[i].Cost {
				t.Fatalf("workers=%d round %d: traced cost %v, reported %v", workers, i, cost, rep.Rounds[i].Cost)
			}
			sum += cost
		}
		if total := rep.TotalCost(); sum != total {
			t.Fatalf("workers=%d: traced costs sum to %v, TotalCost %v", workers, sum, total)
		}
	}
}

// TestLabelledRound: at 1 and 4 workers, a round keeps the label it was
// given in its RoundStats, as the name of its trace event and in its line of
// Report.String; an unlabelled round is called "round", and the recycled
// exchange forgets the label of the round before.
func TestLabelledRound(t *testing.T) {
	tr, vs := twoTierForChooser(t)
	for _, workers := range []int{1, 4} {
		tc := obs.NewTrace()
		e := NewEngine(tr, WithWorkers(workers), WithTracer(tc))
		labels := []string{"propose", "", "jump"}
		for _, label := range labels {
			x := e.Exchange()
			if label != "" {
				x.Label(label)
			}
			x.Out(vs[0]).Send(vs[3], TagData, []uint64{1, 2})
			if rd := x.Execute(); rd.Label != label {
				t.Fatalf("workers %d: Execute reports label %q, want %q", workers, rd.Label, label)
			}
		}
		rep := e.Report()
		evs := roundEvents(tc)
		for i, label := range labels {
			name := label
			if label == "" {
				name = "round"
			}
			if rep.Rounds[i].Label != label || evs[i].Name != name {
				t.Fatalf("workers %d: round %d labelled %q, event %q, want %q and %q", workers, i, rep.Rounds[i].Label, evs[i].Name, label, name)
			}
		}
		for _, line := range []string{"  round 1 (propose): cost=", "  round 2: cost=", "  round 3 (jump): cost="} {
			if !strings.Contains(rep.String(), line) {
				t.Fatalf("workers %d: report has no line %q:\n%s", workers, line, rep)
			}
		}
	}
}

// TestEngineSinks: Metrics reports the registry the engine was built with,
// so protocols on it feed one registry, and nil when none is attached; an
// attached tracer gets one lane named netsim rounds, beside its pool's.
func TestEngineSinks(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if e := NewEngine(tr); e.Metrics() != nil {
		t.Fatalf("bare engine reports registry %v", e.Metrics())
	}
	tc, reg := obs.NewTrace(), obs.NewRegistry()
	if e := NewEngine(tr, WithTracer(tc), WithMetrics(reg)); e.Metrics() != reg {
		t.Fatalf("engine reports registry %v, want %v", e.Metrics(), reg)
	}
	var lanes []any
	rounds := 0
	for _, ev := range tc.Events() {
		if ev.Name == "thread_name" {
			lanes = append(lanes, ev.Args["name"])
			if ev.Args["name"] == "netsim rounds" {
				rounds++
			}
		}
	}
	if rounds != 1 {
		t.Fatalf("traced engine named lanes %v, want netsim rounds once", lanes)
	}
}

// TestRoundAPITraceAndBottleneck exercises the per-message Round path with
// tracing and metrics attached and checks the bottleneck-link annotation.
func TestRoundAPITraceAndBottleneck(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tc := obs.NewTrace()
	reg := obs.NewRegistry()
	e := NewEngine(tr, WithTracer(tc), WithMetrics(reg))
	vs := tr.ComputeNodes()

	r := e.BeginRound()
	r.Send(vs[0], vs[1], TagData, []uint64{1, 2, 3})
	st := r.Finish()

	evs := roundEvents(tc)
	if len(evs) != 1 {
		t.Fatalf("%d round events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Args["cost"].(float64) != st.Cost {
		t.Fatalf("traced cost %v, want %v", ev.Args["cost"], st.Cost)
	}
	if st.BottleneckEdge == topology.NoEdge {
		t.Fatal("expected a bottleneck edge on a cross-node send")
	}
	if got := ev.Args["bottleneck_edge"].(int); got != int(st.BottleneckEdge) {
		t.Fatalf("traced bottleneck edge %v, want %d", got, st.BottleneckEdge)
	}
	if link, ok := ev.Args["bottleneck_link"].(string); !ok || link == "" {
		t.Fatalf("bottleneck_link missing or empty: %v", ev.Args["bottleneck_link"])
	}
	if ev.Dur < 0 {
		t.Fatalf("round span duration negative: %v", ev.Dur)
	}

	snap := reg.Snapshot()
	if snap["netsim.rounds"] != 1 || snap["netsim.elements"] != 3 {
		t.Fatalf("metrics snapshot wrong: %v", snap)
	}
	if math.Abs(snap["netsim.round_cost.sum"]-st.Cost) > 1e-12 {
		t.Fatalf("round_cost.sum = %v, want %v", snap["netsim.round_cost.sum"], st.Cost)
	}
}

// TestTracedRunLeavesStatsIdentical runs the same workload with and without
// the recorder attached and requires bit-identical round statistics and
// totals — the recorder observes, never perturbs.
func TestTracedRunLeavesStatsIdentical(t *testing.T) {
	tr := benchCaterpillar(t)
	batch := benchTransferBatch(tr, 1024)

	run := func(opts ...Option) *Report {
		e := NewEngine(tr, append([]Option{WithWorkers(2)}, opts...)...)
		for r := 0; r < 4; r++ {
			x := e.Exchange()
			planBatch(x, batch[r*64:])
			x.Execute()
		}
		return e.Report()
	}
	plain := run()
	traced := run(WithTracer(obs.NewTrace()), WithMetrics(obs.NewRegistry()))

	if plain.NumRounds() != 4 {
		t.Fatalf("plain run recorded %d rounds, want 4", plain.NumRounds())
	}
	if err := reportsEqual(traced, plain); err != nil {
		t.Fatalf("traced run differs from the plain one: %v", err)
	}
}

// TestPoolForksBetweenRounds is the race-detector pin of the engine's pool
// ownership: on a traced and metered 4-worker engine the driver forks Plan,
// both walks of Execute and, between rounds, kernel-style reductions over
// the inboxes on Engine.Pool(). The report and the kernel results must equal
// the 1-worker run, and the trace must pass the schema check.
func TestPoolForksBetweenRounds(t *testing.T) {
	tr := benchCaterpillar(t)
	vs := tr.ComputeNodes()
	const rounds = 60

	run := func(opts ...Option) (*Report, int64) {
		e := NewEngine(tr, opts...)
		var kernel int64
		for r := 0; r < rounds; r++ {
			x := e.Exchange()
			x.Plan(func(v topology.NodeID, out *Outbox) {
				i := e.t.ComputeIndex(v)
				out.Send(vs[(i+r+1)%len(vs)], TagData, []uint64{uint64(i), uint64(r)})
				if i%16 == r%16 {
					out.Multicast([]topology.NodeID{vs[0], vs[len(vs)/2], vs[i]}, TagR, []uint64{uint64(r)})
				}
			})
			x.Execute()
			kernel += e.Pool().Sum("test receipt", len(vs), func(_, lo, hi int) int64 {
				var got int64
				for i := lo; i < hi; i++ {
					ib := e.Inbox(vs[i])
					for mi := 0; mi < ib.Len(); mi++ {
						got += int64(len(ib.At(mi).Keys)) * int64(i+1)
					}
				}
				return got
			})
		}
		return e.Report(), kernel
	}

	want, wantKernel := run(WithWorkers(1))
	tc := obs.NewTrace()
	reg := obs.NewRegistry()
	got, gotKernel := run(WithWorkers(4), WithTracer(tc), WithMetrics(reg))

	if gotKernel != wantKernel {
		t.Fatalf("kernel reduction: got %d at 4 workers, %d at 1", gotKernel, wantKernel)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report at 4 workers differs from the 1-worker run:\n got %v\nwant %v", got, want)
	}
	// Per round, all on the one pool and all from the driver: Plan, the
	// tally walk, the delivery walk, the kernel.
	if forks := reg.Counter("par.forks").Value(); forks != 4*rounds {
		t.Fatalf("par.forks = %d, want %d", forks, 4*rounds)
	}
	var buf bytes.Buffer
	if err := tc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("trace fails schema check: %v", err)
	}
}
