package netsim

import (
	"fmt"

	"topompc/internal/topology"
)

// Round is the serial per-message reference the Exchange is tested against
// (TestExchangeMatchesRound, TestInboxBytesAcrossWorkers, FuzzExchange) and
// the baseline of BenchmarkRoutingPerSend. It shares nothing with the
// exchange's data path: every Send walks its tree path edge by edge, every
// Multicast its Steiner tree, deliveries are buffered in issue order, and
// Finish lays the inbox arena out with one serial counting pass. It keeps
// the round's own per-edge and per-node arrays, which Finish returns and
// adds to the engine's totals.
type Round struct {
	e        *Engine
	traffic  []int64
	sent     []int64
	received []int64
	elements int64
	t0       float64 // trace timestamp of BeginRound (tracing only)
	done     bool

	msgs     []Message // deliveries, in issue order
	sc       *topology.SteinerScratch
	pathBuf  []topology.EdgeID
	dupStamp []int32 // multicast destination dedup (stamp set)
	dupCur   int32
}

// BeginRound starts a per-message reference round. Sends read the inboxes
// of the previous round; deliveries become visible when Finish is called.
func (e *Engine) BeginRound() *Round {
	if e.inRound {
		panic("netsim: BeginRound while a round is open")
	}
	e.inRound = true
	r := &Round{
		e:        e,
		traffic:  make([]int64, e.t.NumEdges()),
		sent:     make([]int64, e.t.NumNodes()),
		received: make([]int64, e.t.NumNodes()),
		sc:       topology.NewSteinerScratch(e.t),
		dupStamp: make([]int32, e.t.NumNodes()),
	}
	if e.tracer != nil {
		r.t0 = e.tracer.Now()
	}
	return r
}

func (r *Round) checkEndpoints(from topology.NodeID, to ...topology.NodeID) {
	if r.done {
		panic("netsim: send on finished round")
	}
	if !r.e.t.IsCompute(from) {
		panic(fmt.Sprintf("netsim: sender %d is not a compute node", from))
	}
	for _, d := range to {
		if !r.e.t.IsCompute(d) {
			panic(fmt.Sprintf("netsim: receiver %d is not a compute node", d))
		}
	}
}

// Send is Outbox.Send, accounted by walking the path.
func (r *Round) Send(from, to topology.NodeID, tag Tag, keys []uint64) {
	r.checkEndpoints(from, to)
	if from != to {
		r.pathBuf = r.e.t.Path(r.pathBuf[:0], from, to)
		for _, edge := range r.pathBuf {
			r.traffic[edge] += int64(len(keys))
		}
		r.sent[from] += int64(len(keys))
	}
	r.deliver(from, to, tag, keys)
}

// Multicast is Outbox.Multicast, accounted by walking the Steiner tree.
func (r *Round) Multicast(from topology.NodeID, dsts []topology.NodeID, tag Tag, keys []uint64) {
	r.checkEndpoints(from, dsts...)
	r.pathBuf = r.e.t.Steiner(r.pathBuf[:0], r.sc, from, dsts)
	if len(r.pathBuf) > 0 {
		// The sender emits one copy into the network; routers replicate.
		r.sent[from] += int64(len(keys))
	}
	for _, edge := range r.pathBuf {
		r.traffic[edge] += int64(len(keys))
	}
	r.dupCur++
	for _, d := range dsts {
		if r.dupStamp[d] == r.dupCur {
			continue
		}
		r.dupStamp[d] = r.dupCur
		r.deliver(from, d, tag, keys)
	}
}

func (r *Round) deliver(from, to topology.NodeID, tag Tag, keys []uint64) {
	r.elements += int64(len(keys))
	if from != to {
		r.received[to] += int64(len(keys))
	}
	r.msgs = append(r.msgs, Message{From: from, To: to, Tag: tag, Keys: keys})
}

// roundArrays is one round's statistics together with its per-edge and
// per-node counts, which RoundStats does not keep: what the Round oracle
// counts, and what an exchange round adds to the engine's totals.
type roundArrays struct {
	RoundStats
	EdgeElems    []int64 // elements crossing each edge, by EdgeID
	NodeSent     []int64 // elements emitted by each node, by NodeID
	NodeReceived []int64 // elements delivered to each node, self-sends excluded
}

// executed runs x's Execute and returns the round's statistics with its
// arrays: the difference between the engine's totals after and before.
func executed(x *Exchange) roundArrays {
	before := x.e.Report()
	st := x.Execute()
	after := x.e.Report()
	delta := func(a, b []int64) []int64 {
		d := make([]int64, len(a))
		for i := range a {
			d[i] = a[i] - b[i]
		}
		return d
	}
	return roundArrays{
		RoundStats:   st,
		EdgeElems:    delta(after.EdgeTotals, before.EdgeTotals),
		NodeSent:     delta(after.SentTotals, before.SentTotals),
		NodeReceived: delta(after.RecvTotals, before.RecvTotals),
	}
}

// Finish closes the round: it lays the buffered deliveries out in the inbox
// arena, receiver by receiver in issue order, computes the round cost,
// records statistics, adds the round's arrays to the engine's totals, and
// makes the deliveries visible.
func (r *Round) Finish() roundArrays {
	if r.done {
		panic("netsim: Finish called twice")
	}
	r.done = true
	e := r.e

	a := e.inboxNext
	nc := e.t.NumCompute()
	clear(a.off)
	clear(a.koff)
	for _, m := range r.msgs {
		ci := e.t.ComputeIndex(m.To)
		a.off[ci+1]++
		a.koff[ci+1] += len(m.Keys)
	}
	for ci := 0; ci < nc; ci++ {
		a.off[ci+1] += a.off[ci]
		a.koff[ci+1] += a.koff[ci]
	}
	a.fit(a.off[nc], a.koff[nc])
	rows := append([]int(nil), a.off[:nc]...) // next free row per receiver
	used := make([]int, nc)                   // keys written per receiver
	for _, m := range r.msgs {
		ci := e.t.ComputeIndex(m.To)
		copy(a.pool[a.koff[ci]+used[ci]:], m.Keys)
		used[ci] += len(m.Keys)
		a.hdr[rows[ci]] = msgHdr{from: m.From, end: int32(used[ci]), tag: m.Tag}
		rows[ci]++
	}

	e.inRound = false
	slot := len(e.rounds)
	e.rounds = append(e.rounds, RoundStats{Index: slot, Messages: len(r.msgs), Elements: r.elements})
	rd := &e.rounds[slot]
	rd.BottleneckEdge = topology.NoEdge
	for edge, n := range r.traffic {
		if c := float64(n) / e.t.Bandwidth(topology.EdgeID(edge)); c > rd.Cost {
			rd.Cost, rd.BottleneckEdge = c, topology.EdgeID(edge)
		}
	}
	for _, n := range r.received {
		rd.MaxReceived = max(rd.MaxReceived, n)
	}
	for edge, n := range r.traffic {
		e.totEdge[edge] += n
	}
	for v := range r.sent {
		e.totSent[v] += r.sent[v]
		e.totRecv[v] += r.received[v]
	}
	e.recordRound(rd, r.t0)
	e.inboxCur, e.inboxNext = e.inboxNext, e.inboxCur
	return roundArrays{RoundStats: *rd, EdgeElems: r.traffic, NodeSent: r.sent, NodeReceived: r.received}
}
