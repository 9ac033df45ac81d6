package place

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// priceThenRun prices the one round plan queues through RunCheapest, beside
// a candidate of no rounds that wins the decision, and reads its price and
// bottleneck edge off the netsim.plan instant; then it runs plan on the same
// engine and returns the price, the bottleneck and the executed round.
func priceThenRun(t *testing.T, e *netsim.Engine, tc *obs.Trace, plan func(x *netsim.Exchange)) (float64, topology.EdgeID, netsim.RoundStats) {
	t.Helper()
	before := len(tc.Events())
	e.RunCheapest([]netsim.Candidate{
		{Name: "priced", Rounds: 1, Plan: func(x *netsim.Exchange, _ int) {
			if !x.Priced() {
				t.Fatal("the priced candidate ran")
			}
			plan(x)
		}},
		{Name: "none"},
	})
	var c map[string]any
	for _, ev := range tc.Events()[before:] {
		if ev.Cat == "netsim.plan" {
			c = ev.Args["candidates"].([]any)[0].(map[string]any)
		}
	}
	if c == nil {
		t.Fatal("RunCheapest emitted no netsim.plan instant")
	}
	edge := topology.NoEdge
	if b, ok := c["bottleneck_edge"]; ok {
		edge = topology.EdgeID(b.(int))
	}
	x := e.Exchange()
	plan(x)
	return c["cost"].(float64), edge, x.Execute()
}

// TestScatterMatchesPerRowReference runs Scatter on every compute node of
// a real exchange and compares each inbox, message by message, with a
// reference that walks the fragment row by row: buckets in bucket order or
// in order of first appearance, a bucket's rows in fragment order, empty
// buckets sent nowhere, each bucket to its unicast target or to every node
// of its multicast vector. Targets repeat, so one receiver sees several of
// a sender's buckets and their order shows in its inbox. The same scatter
// priced through RunCheapest costs what the executed round costs, on the
// same bottleneck edge, at 1 and 4 workers.
func TestScatterMatchesPerRowReference(t *testing.T) {
	cases := []struct {
		name      string
		width     int
		rows      func(i int) int             // rows on compute index i
		bucket    func(j int, key uint64) int // row j's bucket, below n
		n         int
		multicast bool
		firstSeen bool
	}{
		{"width 1", 1, func(i int) int { return 10 + 7*i }, func(_ int, k uint64) int { return int(k % 5) }, 5, false, false},
		{"width 2", 2, func(i int) int { return 3 + i }, func(_ int, k uint64) int { return int(k % 4) }, 4, false, false},
		{"empty fragment", 2, func(int) int { return 0 }, func(int, uint64) int { return 0 }, 3, false, false},
		{"one bucket", 1, func(i int) int { return 9 }, func(int, uint64) int { return 2 }, 3, false, false},
		{"empty buckets skipped", 2, func(i int) int { return 20 }, func(_ int, k uint64) int { return 1 + 5*int(k%2) }, 8, false, false},
		{"first seen", 1, func(i int) int { return 30 }, func(j int, k uint64) int { return int(k % 6) }, 6, false, true},
		{"multicast vectors", 1, func(i int) int { return 25 }, func(_ int, k uint64) int { return int(k % 7) }, 7, true, false},
		{"multicast first seen", 2, func(i int) int { return 1 + i%3 }, func(j int, k uint64) int { return (j * 5) % 9 }, 9, true, true},
		{"multicast empty fragments", 1, func(i int) int { return 6 * (i % 2) }, func(_ int, k uint64) int { return int(k % 4) }, 4, true, false},
		{"first seen empty fragments", 2, func(i int) int { return 11 * (i % 3 / 2) }, func(_ int, k uint64) int { return int(k % 5) }, 5, false, true},
	}
	rng := rand.New(rand.NewSource(3))
	for _, shape := range []int{9, 0} { // line, twotier
		name, tr, err := topotest.Draw(rng, shape)
		if err != nil {
			t.Fatal(err)
		}
		nodes := tr.ComputeNodes()
		p := len(nodes)
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", name, c.name), func(t *testing.T) {
				frags := make([][]uint64, p)
				for i := range frags {
					frags[i] = make([]uint64, c.width*c.rows(i))
					for j := range frags[i] {
						frags[i][j] = rng.Uint64() % 1000
					}
				}
				unicast := make([]topology.NodeID, c.n)
				for b := range unicast {
					unicast[b] = nodes[b%2%p] // targets repeat
				}
				vector := func(b int) []topology.NodeID {
					if p == 1 {
						return []topology.NodeID{nodes[0]}
					}
					return []topology.NodeID{nodes[(b+1)%p], nodes[b%p]}
				}
				dests := func(b int) []topology.NodeID {
					if c.multicast {
						return vector(b)
					}
					return []topology.NodeID{unicast[b]}
				}

				// Reference: per receiver, what arrives from whom, in order.
				want := make(map[topology.NodeID][]netsim.Message)
				for i, frag := range frags {
					rowsOf := make([][]uint64, c.n)
					var order []int
					for j := 0; j < len(frag)/c.width; j++ {
						b := c.bucket(j, frag[j*c.width])
						if rowsOf[b] == nil {
							order = append(order, b)
						}
						rowsOf[b] = append(rowsOf[b], frag[j*c.width:(j+1)*c.width]...)
					}
					if !c.firstSeen {
						order = order[:0]
						for b := range rowsOf {
							if rowsOf[b] != nil {
								order = append(order, b)
							}
						}
					}
					for _, b := range order {
						for _, d := range dests(b) {
							want[d] = append(want[d], netsim.Message{From: nodes[i], To: d, Tag: netsim.TagData, Keys: rowsOf[b]})
						}
					}
				}

				plan := func(x *netsim.Exchange) {
					x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
						frag := frags[tr.ComputeIndex(v)]
						bucket := make([]int32, len(frag)/c.width)
						for j := range bucket {
							bucket[j] = int32(c.bucket(j, frag[j*c.width]))
						}
						to := Targets{To: unicast, FirstSeen: c.firstSeen}
						if c.multicast {
							to = Targets{Vector: vector, FirstSeen: c.firstSeen}
						}
						Scatter(out, netsim.TagData, frag, c.width, bucket, c.n, to)
					})
				}
				for _, workers := range []int{1, 4} {
					tc := obs.NewTrace()
					e := netsim.NewEngine(tr, netsim.WithWorkers(workers), netsim.WithTracer(tc))
					price, edge, rd := priceThenRun(t, e, tc, plan)
					if price != rd.Cost || edge != rd.BottleneckEdge {
						t.Fatalf("workers %d: priced %v on edge %d, executed %v on edge %d", workers, price, edge, rd.Cost, rd.BottleneckEdge)
					}
					for _, v := range nodes {
						got := e.Inbox(v).Messages()
						if len(got) == 0 && len(want[v]) == 0 {
							continue
						}
						if !reflect.DeepEqual(got, want[v]) {
							t.Fatalf("workers %d: node %v receives\n%v\nwant\n%v", workers, v, got, want[v])
						}
					}
				}
			})
		}
	}
}

// TestRoundMatchesPerRowReference plans Algorithm 2's round through a
// two-block router on a real exchange and compares each inbox with a
// reference that routes row by row: a replicated R row to h_b(key) in every
// block b, one multicast per destination vector in order of first
// appearance; a hashed R or S row to h_b(key) in its sender's block b, one
// unicast per member in member order. Hash alone must send the S side's
// messages of the round.
func TestRoundMatchesPerRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []int{9, 0} { // line, twotier
		name, tr, err := topotest.Draw(rng, shape)
		if err != nil {
			t.Fatal(err)
		}
		nodes := tr.ComputeNodes()
		p := len(nodes)
		blocks := [][]topology.NodeID{nodes[:(p+1)/2], nodes[(p+1)/2:]}
		if p == 1 {
			blocks = blocks[:1]
		}
		weights := make([]float64, p)
		for i := range weights {
			weights[i] = 1 + 3*rng.Float64()
		}
		r, err := NewBlockRouter(tr, blocks, weights, 11, 0x5eed)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2} {
			for _, replicate := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/width%d/replicate=%v", name, width, replicate), func(t *testing.T) {
					rs, ss := make([][]uint64, p), make([][]uint64, p)
					for i := range rs {
						rs[i] = make([]uint64, width*(i%3)*7)
						ss[i] = make([]uint64, width*(5+i))
						for _, side := range [][]uint64{rs[i], ss[i]} {
							for j := range side {
								side[j] = rng.Uint64() % 50
							}
						}
					}

					want := make(map[topology.NodeID][]netsim.Message)
					hashed := func(from topology.NodeID, tag netsim.Tag, words []uint64) {
						members := r.Blocks[r.BlockOf(tr.ComputeIndex(from))]
						h := r.Chooser(r.BlockOf(tr.ComputeIndex(from)))
						for m, d := range members {
							var rows []uint64
							for j := 0; j < len(words); j += width {
								if h.Choose(words[j]) == m {
									rows = append(rows, words[j:j+width]...)
								}
							}
							if rows != nil {
								want[d] = append(want[d], netsim.Message{From: from, To: d, Tag: tag, Keys: rows})
							}
						}
					}
					for i, from := range nodes {
						if replicate {
							var order []string
							rowsOf := make(map[string][]uint64)
							dstsOf := make(map[string][]topology.NodeID)
							for j := 0; j < len(rs[i]); j += width {
								dsts := make([]topology.NodeID, len(r.Blocks))
								r.Destinations(dsts, rs[i][j])
								sig := fmt.Sprint(dsts)
								if _, ok := rowsOf[sig]; !ok {
									order = append(order, sig)
									dstsOf[sig] = dsts
								}
								rowsOf[sig] = append(rowsOf[sig], rs[i][j:j+width]...)
							}
							for _, sig := range order {
								for _, d := range dstsOf[sig] {
									want[d] = append(want[d], netsim.Message{From: from, To: d, Tag: netsim.TagR, Keys: rowsOf[sig]})
								}
							}
						} else {
							hashed(from, netsim.TagR, rs[i])
						}
						hashed(from, netsim.TagS, ss[i])
					}

					check := func(e *netsim.Engine, want map[topology.NodeID][]netsim.Message) {
						for _, v := range nodes {
							got := e.Inbox(v).Messages()
							if len(got) == 0 && len(want[v]) == 0 {
								continue
							}
							if !reflect.DeepEqual(got, want[v]) {
								t.Fatalf("node %v receives\n%v\nwant\n%v", v, got, want[v])
							}
						}
					}
					e := netsim.NewEngine(tr)
					x := e.Exchange()
					r.Round(x, width, replicate, func(i int) ([]uint64, []uint64) { return rs[i], ss[i] })
					x.Execute()
					check(e, want)

					// Hash alone sends the round's S side.
					wantS := make(map[topology.NodeID][]netsim.Message)
					for v, msgs := range want {
						for _, m := range msgs {
							if m.Tag == netsim.TagS {
								wantS[v] = append(wantS[v], m)
							}
						}
					}
					e = netsim.NewEngine(tr)
					x = e.Exchange()
					x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
						i := tr.ComputeIndex(v)
						r.Hash(out, netsim.TagS, i, ss[i], width)
					})
					x.Execute()
					check(e, wantS)
				})
			}
		}
	}
}

// TestPricedHashLaysNoRowOut: pricing a Hash of 10⁵ two-word rows, a
// 1.6 MB fragment, allocates the rows' bucket ids and the bucket counts and
// no buffer the fragment's size — no positions, no payload.
func TestPricedHashLaysNoRowOut(t *testing.T) {
	tr, err := topology.TwoTier([]int{4, 4}, []float64{2, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewFlatRouter(tr, Uniform(tr.NumCompute()), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	words := make([]uint64, 2*100_000)
	for j := range words {
		words[j] = rng.Uint64()
	}
	priced, bytes := false, uint64(0)
	e := netsim.NewEngine(tr, netsim.WithWorkers(1))
	e.RunCheapest([]netsim.Candidate{{Name: "hash", Rounds: 1, Plan: func(x *netsim.Exchange, _ int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
			if i := tr.ComputeIndex(v); i == 0 {
				r.Hash(out, netsim.TagData, i, words, 2)
			}
		})
		runtime.ReadMemStats(&after)
		if x.Priced() {
			priced, bytes = true, after.TotalAlloc-before.TotalAlloc
		}
	}}, {Name: "none"}})
	if !priced {
		t.Fatal("the hash was never priced")
	}
	if limit := uint64(len(words) * 8 / 2); bytes >= limit {
		t.Errorf("pricing the hash allocated %d bytes, want below %d, half the %d-byte fragment", bytes, limit, len(words)*8)
	}
}
