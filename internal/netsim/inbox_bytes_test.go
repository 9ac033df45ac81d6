package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"topompc/internal/obs"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// testRound is one round of a test plan. stages[k][ci] lists what compute
// node ci queues in stage k: the first Plan call, the second Plan call, and
// a direct Out(v) after both — the order its outbox receives them in.
type testRound struct {
	stages [3][][]fuzzOp
}

func newTestRound(nc int) testRound {
	var rd testRound
	for k := range rd.stages {
		rd.stages[k] = make([][]fuzzOp, nc)
	}
	return rd
}

func queueOps(out *Outbox, ops []fuzzOp) {
	for _, o := range ops {
		if o.dsts == nil {
			out.Send(o.to, o.tag, o.keys)
		} else {
			out.Multicast(o.dsts, o.tag, o.keys)
		}
	}
}

// planRound opens an exchange and queues one round of the plan into it.
func planRound(e *Engine, rd testRound) *Exchange {
	nodes := e.t.ComputeNodes()
	x := e.Exchange()
	for k := 0; k < 2; k++ {
		x.Plan(func(v topology.NodeID, out *Outbox) { queueOps(out, rd.stages[k][e.t.ComputeIndex(v)]) })
	}
	for ci, ops := range rd.stages[2] {
		if len(ops) > 0 {
			queueOps(x.Out(nodes[ci]), ops)
		}
	}
	return x
}

// oraclePlanned replays the same round op by op through the serial Round,
// senders in compute-node order.
func oraclePlanned(e *Engine, rd testRound) roundArrays {
	r := e.BeginRound()
	for ci, v := range e.t.ComputeNodes() {
		for k := range rd.stages {
			for _, o := range rd.stages[k][ci] {
				if o.dsts == nil {
					r.Send(v, o.to, o.tag, o.keys)
				} else {
					r.Multicast(v, o.dsts, o.tag, o.keys)
				}
			}
		}
	}
	return r.Finish()
}

// inboxBytes copies every compute node's inbox out of the arena.
func inboxBytes(e *Engine) [][]Message {
	out := make([][]Message, 0, e.t.NumCompute())
	for _, v := range e.t.ComputeNodes() {
		msgs := e.Inbox(v).Messages()
		for i := range msgs {
			msgs[i].Keys = append([]uint64(nil), msgs[i].Keys...)
		}
		out = append(out, msgs)
	}
	return out
}

// randomTestRound draws a round: unicasts (a fifth of them self-sends),
// multicasts of zero to five destinations with repeats and the sender among
// them, payloads of zero to four keys.
func randomTestRound(rng *rand.Rand, t *topology.Tree) testRound {
	vs := t.ComputeNodes()
	rd := newTestRound(len(vs))
	var next uint64
	for ci, v := range vs {
		for k := range rd.stages {
			count := rng.Intn(3)
			if k == 2 && rng.Intn(4) != 0 {
				count = 0
			}
			for ; count > 0; count-- {
				o := fuzzOp{from: v, tag: Tag(rng.Intn(3)), keys: make([]uint64, rng.Intn(5))}
				for i := range o.keys {
					next++
					o.keys[i] = next
				}
				switch rng.Intn(5) {
				case 0:
					o.to = v
				case 1, 2:
					o.to = vs[rng.Intn(len(vs))]
				default:
					o.dsts = make([]topology.NodeID, rng.Intn(6))
					for d := range o.dsts {
						o.dsts[d] = vs[rng.Intn(len(vs))]
					}
					if len(o.dsts) > 1 && rng.Intn(2) == 0 {
						o.dsts[0], o.dsts[len(o.dsts)-1] = v, o.dsts[1]
					}
				}
				rd.stages[k][ci] = append(rd.stages[k][ci], o)
			}
		}
	}
	return rd
}

// TestInboxBytesAcrossWorkers: on every topotest shape, over several rounds
// on one engine (so both arenas and the exchange's op logs are reused), every
// inbox holds the same (from, tag, keys) sequence at 1, 2, 4 and 7 workers,
// and that sequence is the serial Round oracle's.
func TestInboxBytesAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 4*topotest.NumShapes; i++ {
		name, tr, err := topotest.Draw(rng, i)
		if err != nil {
			t.Fatalf("shape %d (%s): %v", i, name, err)
		}
		rounds := make([]testRound, 4)
		for r := range rounds {
			rounds[r] = randomTestRound(rng, tr)
		}
		oracle := NewEngine(tr)
		var want [][][]Message
		for _, rd := range rounds {
			oraclePlanned(oracle, rd)
			want = append(want, inboxBytes(oracle))
		}
		for _, workers := range []int{1, 2, 4, 7} {
			e := NewEngine(tr, WithWorkers(workers))
			for r, rd := range rounds {
				planRound(e, rd).Execute()
				if got := inboxBytes(e); !reflect.DeepEqual(got, want[r]) {
					t.Fatalf("%s #%d, workers %d, round %d: inboxes differ from the oracle\n got %v\nwant %v",
						name, i, workers, r, got, want[r])
				}
			}
			if got, want := e.Report().TotalCost(), oracle.Report().TotalCost(); got != want {
				t.Fatalf("%s #%d, workers %d: total cost %v, oracle %v", name, i, workers, got, want)
			}
		}
	}
}

// TestOutInAnyOrderKeepsInboxOrder: senders reached through Out in
// descending order, then planned, then reached through Out again in random
// order (some of them twice) move their ops about the shard's log, and every
// inbox still reads compute-node order, then queueing order: the serial
// Round oracle's bytes, at one worker and at four, round after round.
func TestOutInAnyOrderKeepsInboxOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 2*topotest.NumShapes; i++ {
		name, tr, err := topotest.Draw(rng, i)
		if err != nil {
			t.Fatalf("shape %d (%s): %v", i, name, err)
		}
		nodes := tr.ComputeNodes()
		rounds := make([]testRound, 3)
		orders := make([][]int, len(rounds))
		for r := range rounds {
			rounds[r] = randomTestRound(rng, tr)
			// Unlike randomTestRound's, most senders have something for Out.
			for ci := range nodes {
				rounds[r].stages[2][ci] = append(rounds[r].stages[2][ci], randomTestRound(rng, tr).stages[0][ci]...)
			}
			orders[r] = rng.Perm(len(nodes))
		}
		oracle := NewEngine(tr)
		var want [][][]Message
		for _, rd := range rounds {
			oraclePlanned(oracle, rd)
			want = append(want, inboxBytes(oracle))
		}
		for _, workers := range []int{1, 4} {
			e := NewEngine(tr, WithWorkers(workers))
			for r, rd := range rounds {
				x := e.Exchange()
				for ci := len(nodes) - 1; ci >= 0; ci-- {
					queueOps(x.Out(nodes[ci]), rd.stages[0][ci])
				}
				x.Plan(func(v topology.NodeID, out *Outbox) { queueOps(out, rd.stages[1][e.t.ComputeIndex(v)]) })
				for _, ci := range orders[r] { // the first half now, the rest after everyone had a turn
					ops := rd.stages[2][ci]
					queueOps(x.Out(nodes[ci]), ops[:len(ops)/2])
				}
				for _, ci := range orders[r] {
					ops := rd.stages[2][ci]
					queueOps(x.Out(nodes[ci]), ops[len(ops)/2:])
				}
				x.Execute()
				if got := inboxBytes(e); !reflect.DeepEqual(got, want[r]) {
					t.Fatalf("%s #%d, workers %d, round %d: inboxes differ from the oracle\n got %v\nwant %v", name, i, workers, r, got, want[r])
				}
			}
			if got, want := e.Report().TotalCost(), oracle.Report().TotalCost(); got != want {
				t.Fatalf("%s #%d, workers %d: total cost %v, oracle %v", name, i, workers, got, want)
			}
		}
	}
}

// TestRouterInboxIsEmpty: routers receive nothing, and asking for a router's
// inbox (or that of no node of the tree) says so instead of reading a
// neighbour's rows.
func TestRouterInboxIsEmpty(t *testing.T) {
	tr, err := topology.TwoTier([]int{2, 2}, []float64{1, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tr)
	vs := tr.ComputeNodes()
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *Outbox) { out.Multicast(vs, TagData, []uint64{uint64(v)}) })
	x.Execute()
	routers := 0
	for v := topology.NodeID(0); int(v) < tr.NumNodes(); v++ {
		ib := e.Inbox(v)
		switch {
		case tr.IsCompute(v) && ib.Len() != len(vs):
			t.Fatalf("compute node %d holds %d messages, want %d", v, ib.Len(), len(vs))
		case !tr.IsCompute(v):
			routers++
			if ib.Len() != 0 || ib.KeyCount(TagData) != 0 || ib.Keys(TagData) != nil || len(ib.Messages()) != 0 {
				t.Fatalf("router %d has a non-empty inbox: %v", v, ib.Messages())
			}
		}
	}
	if routers == 0 {
		t.Fatal("fixture has no routers")
	}
	if ib := e.Inbox(topology.NodeID(tr.NumNodes())); ib.Len() != 0 {
		t.Fatalf("inbox of a node outside the tree holds %d messages", ib.Len())
	}
}

// fuzzPlan decodes raw fuzz bytes into a topotest tree and a plan of up to
// four rounds. Byte 0 picks the shape and byte 1 seeds its parameters; then
// each op reads a sender, a control byte (kind, stage, tag — or "close the
// round"), its receiver or destination list, and a payload length. Every
// index is taken modulo the compute-node count, so decoding never fails and
// the fuzzer explores plans, not decoder errors.
func fuzzPlan(data []byte) (*topology.Tree, []testRound, error) {
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		c := data[0]
		data = data[1:]
		return int(c), true
	}
	shape, _ := next()
	seed, _ := next()
	_, tr, err := topotest.Draw(rand.New(rand.NewSource(int64(seed))), shape)
	if err != nil {
		return nil, nil, err
	}
	vs := tr.ComputeNodes()
	rounds := []testRound{newTestRound(len(vs))}
	var key uint64
	for {
		sender, ok1 := next()
		ctl, ok2 := next()
		if !ok1 || !ok2 {
			return tr, rounds, nil
		}
		if ctl%8 == 7 {
			if len(rounds) == 4 {
				return tr, rounds, nil
			}
			rounds = append(rounds, newTestRound(len(vs)))
			continue
		}
		ci := sender % len(vs)
		o := fuzzOp{from: vs[ci], tag: Tag(ctl >> 6)}
		if ctl%8 < 4 {
			to, _ := next()
			o.to = vs[to%len(vs)]
		} else {
			n, _ := next()
			o.dsts = make([]topology.NodeID, n%6)
			for d := range o.dsts {
				b, _ := next()
				o.dsts[d] = vs[b%len(vs)]
			}
		}
		n, _ := next()
		o.keys = make([]uint64, n%5)
		for i := range o.keys {
			key++
			o.keys[i] = key
		}
		stage := (ctl >> 3) % 3
		rd := &rounds[len(rounds)-1]
		rd.stages[stage][ci] = append(rd.stages[stage][ci], o)
	}
}

// FuzzExchange holds the exchange's data path to its contract on
// byte-derived trees and plans: the inboxes are the same bytes at 1 and 4
// workers and equal the serial Round oracle's after every round; every
// 1-worker round equals the oracle's field by field, its per-edge and
// per-node counts read off the engine's totals; the 4-worker and the
// oracle's reports equal the 1-worker one; and the traced per-round costs
// sum to Report.TotalCost.
func FuzzExchange(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 3, 1, 4, 2, 0, 1, 2, 2, 8, 2, 1})
	f.Add([]byte{2, 7, 0, 0, 0, 0, 0, 4, 0, 3, 9, 5, 5, 5, 1, 4, 7, 1, 64, 2, 4})
	f.Add([]byte{8, 0, 0, 0, 0, 2, 0, 4, 3, 0, 0, 0, 1, 0, 7, 0, 12, 0, 3, 0, 20, 5, 0, 0, 0, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, rounds, err := fuzzPlan(data)
		if err != nil {
			t.Fatalf("topotest.Draw: %v", err)
		}
		tc := obs.NewTrace()
		oracle := NewEngine(tr)
		serial := NewEngine(tr, WithWorkers(1), WithTracer(tc))
		sharded := NewEngine(tr, WithWorkers(4))
		for r, rd := range rounds {
			want := oraclePlanned(oracle, rd)
			statsEqual(t, executed(planRound(serial, rd)), want)
			planRound(sharded, rd).Execute()
			wantBytes := inboxBytes(oracle)
			for name, e := range map[string]*Engine{"1 worker": serial, "4 workers": sharded} {
				if got := inboxBytes(e); !reflect.DeepEqual(got, wantBytes) {
					t.Fatalf("round %d, %s: inboxes differ from the oracle\n got %v\nwant %v", r, name, got, wantBytes)
				}
			}
		}

		sr := serial.Report()
		sum := 0.0
		for _, ev := range roundEvents(tc) {
			sum += ev.Args["cost"].(float64)
		}
		if sum != sr.TotalCost() {
			t.Fatalf("traced round costs sum to %v, TotalCost %v", sum, sr.TotalCost())
		}
		if err := reportsEqual(sharded.Report(), sr); err != nil {
			t.Fatalf("4-worker report differs from the 1-worker one: %v", err)
		}
		if err := reportsEqual(oracle.Report(), sr); err != nil {
			t.Fatalf("oracle report differs from the 1-worker one: %v", err)
		}
	})
}

// reportsEqual compares two reports of the same rounds: every round's
// statistics and the per-edge and per-node totals.
func reportsEqual(got, want *Report) error {
	if !reflect.DeepEqual(got.Rounds, want.Rounds) {
		return fmt.Errorf("rounds %+v, want %+v", got.Rounds, want.Rounds)
	}
	if !reflect.DeepEqual(got.EdgeTotals, want.EdgeTotals) {
		return fmt.Errorf("edge totals %v, want %v", got.EdgeTotals, want.EdgeTotals)
	}
	if !reflect.DeepEqual(got.SentTotals, want.SentTotals) || !reflect.DeepEqual(got.RecvTotals, want.RecvTotals) {
		return fmt.Errorf("node totals %v %v, want %v %v", got.SentTotals, got.RecvTotals, want.SentTotals, want.RecvTotals)
	}
	return nil
}
