package netsim

import (
	"math/rand"
	"reflect"
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
// Report as they were, at 1 and 4 workers, with full stats under Execute and
// lean stats under ExecuteAsync.
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
			for _, lean := range []bool{false, true} {
				opts := []Option{WithWorkers(workers)}
				if lean {
					opts = append(opts, WithLeanStats())
				}
				e := NewEngine(tr, opts...)
				for r, rd := range rounds {
					inboxes, report := inboxBytes(e), e.Report()
					cost, bottleneck := planRound(e, rd).Price()
					if n := e.NumRounds(); n != r {
						t.Fatalf("%s #%d, workers %d, lean %v, round %d: %d rounds after Price, want %d", name, i, workers, lean, r, n, r)
					}
					if !reflect.DeepEqual(inboxBytes(e), inboxes) {
						t.Fatalf("%s #%d, workers %d, lean %v, round %d: Price changed the inboxes", name, i, workers, lean, r)
					}
					if !reflect.DeepEqual(e.Report(), report) {
						t.Fatalf("%s #%d, workers %d, lean %v, round %d: Price changed the report", name, i, workers, lean, r)
					}
					execPlanned(e, rd, lean)
					got := e.Report().Rounds[r]
					if cost != got.Cost || bottleneck != got.BottleneckEdge {
						t.Fatalf("%s #%d, workers %d, lean %v, round %d: priced (%v, edge %d), executed (%v, edge %d)",
							name, i, workers, lean, r, cost, bottleneck, got.Cost, got.BottleneckEdge)
					}
				}
			}
		}
	}
}

// TestPriceSteadyStateAllocFree: on a lean-stats engine, pricing a round
// allocates nothing once the op logs have grown to the working set, with the
// metrics registry off and on, and the registry counts priced rounds apart
// from executed ones.
func TestPriceSteadyStateAllocFree(t *testing.T) {
	tr := benchCaterpillar(t)
	batch := benchTransferBatch(tr, 4096)
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		e := NewEngine(tr, WithWorkers(1), WithLeanStats(), WithMetrics(reg))
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

// TestPriceTraceEvent: a traced Price emits one instant event carrying its
// cost and bottleneck link, and no round span.
func TestPriceTraceEvent(t *testing.T) {
	tr, err := topology.TwoTier([]int{2, 2}, []float64{4, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	vs := tr.ComputeNodes()
	tc := obs.NewTrace()
	e := NewEngine(tr, WithTracer(tc))
	x := e.Exchange()
	x.Out(vs[0]).Send(vs[3], TagData, []uint64{1, 2, 3, 4})
	cost, bottleneck := x.Price()
	if cost != 4 || bottleneck == topology.NoEdge {
		t.Fatalf("price = (%v, edge %d), want 4 over the slow uplink", cost, bottleneck)
	}
	var priced []obs.Event
	for _, ev := range tc.Events() {
		if ev.Cat == "netsim.price" {
			priced = append(priced, ev)
		}
	}
	if len(priced) != 1 || len(roundEvents(tc)) != 0 {
		t.Fatalf("trace holds %d price events and %d round events, want 1 and 0", len(priced), len(roundEvents(tc)))
	}
	ev := priced[0]
	if ev.Ph != obs.PhInstant || ev.Args["cost"] != cost || ev.Args["bottleneck_edge"] != int(bottleneck) {
		t.Fatalf("price event %+v does not carry the price (%v, edge %d)", ev, cost, bottleneck)
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
	if stats := x.Execute(); stats.Cost != 1 || e.NumRounds() != 1 {
		t.Fatalf("round after a priced exchange: cost %v, %d rounds", stats.Cost, e.NumRounds())
	}
}
