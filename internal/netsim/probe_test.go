package netsim

import (
	"bytes"
	"reflect"
	"testing"

	"topompc/internal/obs"
	"topompc/internal/topology"
)

// TestProbe: on the two-tier tree, at 1 and 4 workers, with and without a
// round before it, a probe of rounds sending 2 keys across the slow uplink
// (cost 2 each, labelled step) is weighed against alt, one round of 5 keys
// (cost 5). Kept after two rounds (cost 4 < 5), the probe's rounds stay and
// reach the recorder as committed rounds under their labels; asked again
// after three (cost 6 ≥ 5), it is beaten: the report and its totals read as
// on an engine that ran the round before and alt alone, alt's round labelled
// alt, the dropped rounds count as priced, no round event names them, and
// one netsim.plan instant names both plans and the pick.
func TestProbe(t *testing.T) {
	tr, vs := twoTierForChooser(t)
	keys := make([]uint64, 8)
	send := func(x *Exchange, n int) { x.Out(vs[0]).Send(vs[3], TagData, keys[:n]) }
	alt := Candidate{Name: "alt", Rounds: 1, Plan: func(x *Exchange, _ int, priced bool) {
		if priced {
			t.Fatal("a probe's alt is priced by its caller")
		}
		send(x, 5)
	}}
	for _, workers := range []int{1, 4} {
		for _, before := range []int{0, 1} {
			for _, probeRounds := range []int{2, 3} {
				tc, reg := obs.NewTrace(), obs.NewRegistry()
				e := NewEngine(tr, WithWorkers(workers), WithTracer(tc), WithMetrics(reg))
				want := NewEngine(tr, WithWorkers(workers))
				for range before {
					for _, en := range []*Engine{e, want} {
						x := en.Exchange()
						x.Out(vs[0]).Send(vs[1], TagData, keys)
						x.Execute()
					}
				}
				p := e.Probe("probe", alt, 5, 1)
				beaten := false
				for range probeRounds {
					if p.Beaten() {
						t.Fatalf("workers %d: beaten below alt's price", workers)
					}
					x := e.Exchange()
					x.Label("step")
					send(x, 2)
					x.Execute()
				}
				names := []string{"round", "step", "step", "step"}[1-before:]
				if probeRounds == 2 {
					p.Keep()
					for range probeRounds {
						x := want.Exchange()
						x.Label("step")
						send(x, 2)
						x.Execute()
					}
				} else {
					beaten = p.Beaten()
					if !beaten {
						t.Fatalf("workers %d: a probe costing 6 not beaten by alt at 5", workers)
					}
					x := want.Exchange()
					x.Label("alt")
					send(x, 5)
					x.Execute()
					names = append(names[:before], "alt")
				}
				name := map[bool]string{false: "kept", true: "beaten"}[beaten]
				if got, w := e.Report(), want.Report(); !reflect.DeepEqual(got, w) {
					t.Fatalf("workers %d, %d before, %s: report\n%s\nwant\n%s", workers, before, name, got, w)
				}
				committed, priced := int64(before+probeRounds), int64(0)
				if beaten {
					committed, priced = int64(before+1), int64(probeRounds)
				}
				if got := reg.Counter("netsim.rounds").Value(); got != committed {
					t.Errorf("%s: netsim.rounds = %d, want %d", name, got, committed)
				}
				if got := reg.Counter("netsim.priced_rounds").Value(); got != priced {
					t.Errorf("%s: netsim.priced_rounds = %d, want %d", name, got, priced)
				}
				rounds := roundEvents(tc)
				if len(rounds) != int(committed) {
					t.Fatalf("%s: %d round events, want %d", name, len(rounds), committed)
				}
				for i, ev := range rounds {
					if ev.Args["round"] != i || ev.Args["cost"] != e.Report().Rounds[i].Cost || ev.Name != names[i] {
						t.Fatalf("%s: round event %d is %s %v, want %s", name, i, ev.Name, ev.Args, names[i])
					}
				}
				var plans []obs.Event
				for _, ev := range tc.Events() {
					if ev.Cat == "netsim.plan" {
						plans = append(plans, ev)
					}
				}
				pick, probeCost := "probe", 4.0
				if beaten {
					pick, probeCost = "alt", 6.0
				}
				if len(plans) != 1 || plans[0].Args["pick"] != pick {
					t.Fatalf("%s: plan events %v, want one picking %s", name, plans, pick)
				}
				cands := plans[0].Args["candidates"].([]any)
				mine, other := cands[0].(map[string]any), cands[1].(map[string]any)
				if mine["name"] != "probe" || mine["rounds"] != probeRounds || mine["cost"] != probeCost || mine["bottleneck_link"] == nil {
					t.Errorf("%s: probe candidate %v", name, mine)
				}
				if other["name"] != "alt" || other["rounds"] != 1 || other["cost"] != 5.0 || other["bottleneck_edge"] != 1 {
					t.Errorf("%s: alt candidate %v", name, other)
				}
				var buf bytes.Buffer
				if err := tc.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if err := obs.ValidateTraceJSON(buf.Bytes()); err != nil {
					t.Fatalf("%s: probe trace fails the schema check: %v", name, err)
				}
			}
		}
	}
}

// TestProbeBeatenAtOnce: an alt priced at 0 beats a probe before its first
// round, and an alt of no rounds leaves a report of none.
func TestProbeBeatenAtOnce(t *testing.T) {
	tr, _ := twoTierForChooser(t)
	e := NewEngine(tr)
	p := e.Probe("probe", Candidate{Name: "alt"}, 0, topology.NoEdge)
	if !p.Beaten() {
		t.Fatal("a probe of no rounds not beaten by a free alt")
	}
	if rep := e.Report(); rep.NumRounds() != 0 || rep.TotalCost() != 0 {
		t.Fatalf("report %s, want no round", rep)
	}
}
