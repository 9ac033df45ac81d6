package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"topompc/internal/obs"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// TestPriceMatchesExecute: on every topotest shape, a random round — unicasts,
// self-sends, multicasts with repeated and self destinations, senders with
// nothing to send — is priced, then planned again and executed, round after
// round on one engine. The price is the executed round's cost and bottleneck
// edge exactly, and pricing leaves the round count, every inbox and the
// Report as they were, at 1 and 4 workers.
func TestPriceMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 3*topotest.NumShapes; i++ {
		name, tr, err := topotest.Draw(rng, i)
		if err != nil {
			t.Fatalf("shape %d (%s): %v", i, name, err)
		}
		rounds := make([]testRound, 4)
		for r := range rounds {
			rounds[r] = randomTestRound(rng, tr)
		}
		for _, workers := range []int{1, 4} {
			e := NewEngine(tr, WithWorkers(workers))
			for r, rd := range rounds {
				inboxes, report := inboxBytes(e), e.Report()
				cost, bottleneck := planRound(e, rd).Price()
				if n := e.Report().NumRounds(); n != r {
					t.Fatalf("%s #%d, workers %d, round %d: %d rounds after Price, want %d", name, i, workers, r, n, r)
				}
				if !reflect.DeepEqual(inboxBytes(e), inboxes) {
					t.Fatalf("%s #%d, workers %d, round %d: Price changed the inboxes", name, i, workers, r)
				}
				if !reflect.DeepEqual(e.Report(), report) {
					t.Fatalf("%s #%d, workers %d, round %d: Price changed the report", name, i, workers, r)
				}
				got := planRound(e, rd).Execute()
				if cost != got.Cost || bottleneck != got.BottleneckEdge {
					t.Fatalf("%s #%d, workers %d, round %d: priced (%v, edge %d), executed (%v, edge %d)",
						name, i, workers, r, cost, bottleneck, got.Cost, got.BottleneckEdge)
				}
			}
		}
	}
}

// TestPriceSteadyStateAllocFree: on the default engine, pricing a round
// allocates nothing once the op logs have grown to the working set, with the
// metrics registry off and on, and the registry counts priced rounds apart
// from executed ones.
func TestPriceSteadyStateAllocFree(t *testing.T) {
	tr := benchCaterpillar(t)
	batch := benchTransferBatch(tr, 4096)
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		e := NewEngine(tr, WithWorkers(1), WithMetrics(reg))
		x := e.Exchange()
		planBatch(x, batch)
		x.Execute()
		price := func() {
			x := e.Exchange()
			planBatch(x, batch)
			x.Price()
		}
		for i := 0; i < 4; i++ {
			price()
		}
		if allocs := testing.AllocsPerRun(10, price); allocs != 0 {
			t.Fatalf("metrics %v: steady-state Price allocates: got %.1f allocs/op, want 0", reg != nil, allocs)
		}
		if reg == nil {
			continue
		}
		if got := reg.Counter("netsim.priced_rounds").Value(); got != 15 {
			t.Fatalf("netsim.priced_rounds = %d, want 15 (4 warmup + 11 measured)", got)
		}
		if got := reg.Counter("netsim.rounds").Value(); got != 1 {
			t.Fatalf("netsim.rounds = %d, want 1: priced rounds are not executed ones", got)
		}
	}
}

// sendPlan is a hand-built candidate on a two-tier tree whose round r sends
// sizes[r] keys from compute node a to compute node b. Every call of its
// Plan is logged, priced or not.
type sendPlan struct {
	a, b  topology.NodeID
	sizes []int
	calls []string
}

func (p *sendPlan) candidate(name string) Candidate {
	keys := make([]uint64, slices.Max(p.sizes))
	return Candidate{Name: name, Rounds: len(p.sizes), Plan: func(x *Exchange, r int, priced bool) {
		p.calls = append(p.calls, fmt.Sprintf("%d/%v", r, priced))
		x.Out(p.a).Send(p.b, TagData, keys[:p.sizes[r]])
	}}
}

// twoTierForChooser is racks {v1, v2} and {v3, v4} behind uplinks of
// bandwidth 4 and 1 with leaf links of 8: k keys from v1 to v4 cost k, and
// from v1 to v2 cost k/8.
func twoTierForChooser(t *testing.T) (*topology.Tree, []topology.NodeID) {
	t.Helper()
	tr, err := topology.TwoTier([]int{2, 2}, []float64{4, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tr.ComputeNodes()
}

// TestRunCheapest: on hand-built plans over a two-tier tree, at 1 and 4
// workers, a multi-round candidate is priced at the sum of its rounds; an
// equal sum goes to fewer rounds and equal rounds to the earlier candidate;
// every candidate is priced round by round and only the winner runs, so the
// Report holds the winner's rounds alone, each labelled with its name; and a
// lone candidate runs without being priced.
func TestRunCheapest(t *testing.T) {
	tr, vs := twoTierForChooser(t)
	far := func(sizes ...int) *sendPlan { return &sendPlan{a: vs[0], b: vs[3], sizes: sizes} }
	cases := []struct {
		name  string
		plans []*sendPlan
		pick  int
	}{
		// 3 + 3 = 6 loses to 5: the price is the sum, not the costliest round.
		{"sum", []*sendPlan{far(3, 3), far(5)}, 1},
		// 2 + 2 = 4 = 4 = 4: fewer rounds first, then the earlier.
		{"ties", []*sendPlan{far(2, 2), far(4), far(4)}, 1},
		{"cheapest first", []*sendPlan{far(1), far(1, 1), far(2)}, 0},
		{"lone", []*sendPlan{far(2, 7)}, 0},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			reg := obs.NewRegistry()
			e := NewEngine(tr, WithWorkers(workers), WithMetrics(reg))
			cands := make([]Candidate, len(tc.plans))
			for i, p := range tc.plans {
				p.calls = nil
				cands[i] = p.candidate(fmt.Sprint(i))
			}
			if got := e.RunCheapest(cands); got != tc.pick {
				t.Fatalf("%s, workers %d: picked %d, want %d", tc.name, workers, got, tc.pick)
			}
			win := tc.plans[tc.pick]
			var priced int64
			for i, p := range tc.plans {
				var want []string
				for r := range p.sizes {
					if len(cands) > 1 {
						want = append(want, fmt.Sprintf("%d/true", r))
						priced++
					}
				}
				for r := range p.sizes {
					if i == tc.pick {
						want = append(want, fmt.Sprintf("%d/false", r))
					}
				}
				if !slices.Equal(p.calls, want) {
					t.Fatalf("%s, workers %d: candidate %d planned %v, want %v", tc.name, workers, i, p.calls, want)
				}
			}
			if got := reg.Counter("netsim.priced_rounds").Value(); got != priced {
				t.Fatalf("%s, workers %d: netsim.priced_rounds = %d, want %d", tc.name, workers, got, priced)
			}
			rep := e.Report()
			if len(rep.Rounds) != len(win.sizes) {
				t.Fatalf("%s, workers %d: report holds %d rounds, the winner runs %d", tc.name, workers, len(rep.Rounds), len(win.sizes))
			}
			for r, rd := range rep.Rounds {
				if rd.Label != cands[tc.pick].Name {
					t.Fatalf("%s, workers %d: round %d labelled %q, want the winner's name %q", tc.name, workers, r, rd.Label, cands[tc.pick].Name)
				}
				if rd.Cost != float64(win.sizes[r]) || rd.Elements != int64(win.sizes[r]) {
					t.Fatalf("%s, workers %d: round %d is %+v, the winner sends %d keys", tc.name, workers, r, rd, win.sizes[r])
				}
			}
			if n := e.Inbox(vs[3]).KeyCount(TagData); n != win.sizes[len(win.sizes)-1] {
				t.Fatalf("%s, workers %d: receiver holds %d keys after the winner's last round", tc.name, workers, n)
			}
		}
	}
}

// TestRunCheapestAllocFree: with no tracer, a steady-state decision — every
// candidate priced, the winner run with its rounds labelled — allocates
// nothing beyond the caller's candidates.
func TestRunCheapestAllocFree(t *testing.T) {
	tr, vs := twoTierForChooser(t)
	keys := make([]uint64, 5)
	cands := []Candidate{
		{Name: "two", Rounds: 2, Plan: func(x *Exchange, _ int, _ bool) { x.Out(vs[0]).Send(vs[3], TagData, keys[:3]) }},
		{Name: "one", Rounds: 1, Plan: func(x *Exchange, _ int, _ bool) { x.Out(vs[0]).Send(vs[3], TagData, keys) }},
	}
	e := NewEngine(tr, WithWorkers(1))
	for range 4 {
		e.RunCheapest(cands)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.RunCheapest(cands) }); allocs != 0 {
		t.Fatalf("steady-state RunCheapest allocates: got %.1f allocs/op, want 0", allocs)
	}
	if rds := e.Report().Rounds; rds[len(rds)-1].Label != "one" {
		t.Fatalf("the winner's round is labelled %q, want one", rds[len(rds)-1].Label)
	}
}

// TestRunCheapestTraceEvent: a traced priced decision emits one netsim.plan
// instant naming every candidate with its rounds, its summed price and the
// bottleneck edge of its costliest round, and the pick; Price emits nothing
// of its own, only the winner's rounds are round spans, named after it, a lone candidate
// emits no plan event, and the trace passes the schema check.
func TestRunCheapestTraceEvent(t *testing.T) {
	tr, vs := twoTierForChooser(t)
	// Candidate 0 sends 16 keys inside rack 1 (cost 2 over a leaf link),
	// then 3 across the slow uplink (cost 3): its costliest round is the
	// second. Candidate 1 sends 4 across the uplink at once.
	keys := make([]uint64, 16)
	two := Candidate{Name: "two", Rounds: 2, Plan: func(x *Exchange, r int, _ bool) {
		if r == 0 {
			x.Out(vs[0]).Send(vs[1], TagData, keys)
		} else {
			x.Out(vs[0]).Send(vs[3], TagData, keys[:3])
		}
	}}
	one := (&sendPlan{a: vs[0], b: vs[3], sizes: []int{4}}).candidate("one")

	// The bottleneck of each candidate's costliest round, from the round run.
	bottleneck := func(c Candidate, r int) int {
		e := NewEngine(tr)
		for i := 0; i <= r; i++ {
			x := e.Exchange()
			c.Plan(x, i, false)
			x.Execute()
		}
		return int(e.Report().Rounds[r].BottleneckEdge)
	}
	want := []map[string]any{
		{"name": "two", "rounds": 2, "cost": 5.0, "bottleneck_edge": bottleneck(two, 1)},
		{"name": "one", "rounds": 1, "cost": 4.0, "bottleneck_edge": bottleneck(one, 0)},
	}

	tc := obs.NewTrace()
	e := NewEngine(tr, WithTracer(tc))
	if got := e.RunCheapest([]Candidate{two, one}); got != 1 {
		t.Fatalf("picked %d, want 1", got)
	}
	e.RunCheapest([]Candidate{one})
	var plans []obs.Event
	for _, ev := range tc.Events() {
		switch ev.Cat {
		case "netsim.plan":
			plans = append(plans, ev)
		case "netsim.price":
			t.Fatalf("Price emitted its own event %+v", ev)
		}
	}
	if len(plans) != 1 || len(roundEvents(tc)) != 2 {
		t.Fatalf("trace holds %d plan events and %d round events, want 1 and 2", len(plans), len(roundEvents(tc)))
	}
	for _, ev := range roundEvents(tc) {
		if ev.Name != "one" {
			t.Fatalf("round event named %q, want the candidate run, one", ev.Name)
		}
	}
	ev := plans[0]
	got, _ := ev.Args["candidates"].([]any)
	if ev.Ph != obs.PhInstant || ev.Args["pick"] != "one" || len(got) != len(want) {
		t.Fatalf("plan event %+v, want an instant picking one of 2 candidates", ev)
	}
	for i, w := range want {
		c := got[i].(map[string]any)
		for k, v := range w {
			if c[k] != v {
				t.Fatalf("candidate %d: %s = %v, want %v (%v)", i, k, c[k], v, c)
			}
		}
		if c["bottleneck_link"] == "" {
			t.Fatalf("candidate %d names no bottleneck link: %v", i, c)
		}
	}
	var buf bytes.Buffer
	if err := tc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("chooser trace fails the schema check: %v", err)
	}
}

// TestPriceClosesTheExchange: a priced exchange is closed like an executed
// one, and the engine opens the next.
func TestPriceClosesTheExchange(t *testing.T) {
	tr, err := topology.Star([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	e := NewEngine(tr)
	x := e.Exchange()
	x.Price()
	mustPanic(t, "Execute after Price", func() { x.Execute() })
	mustPanic(t, "Price twice", func() { x.Price() })
	mustPanic(t, "Out after Price", func() { x.Out(vs[0]) })
	x = e.Exchange()
	x.Out(vs[0]).Send(vs[1], TagData, []uint64{7})
	if stats := x.Execute(); stats.Cost != 1 || e.Report().NumRounds() != 1 {
		t.Fatalf("round after a priced exchange: cost %v, %d rounds", stats.Cost, e.Report().NumRounds())
	}
}
