// Package netsim executes parallel protocols on a topology.Tree under the
// cost model of the topology-aware MPC model (§2 of Hu, Koutris, Blanas,
// PODS 2021).
//
// A protocol proceeds in synchronous rounds. In each round every compute
// node sends data to other compute nodes; each element is routed along the
// unique tree path (unicast) or along the Steiner tree spanning the
// destination set (multicast), and is charged once to every link it
// crosses. The cost of round i is
//
//	cost_i = max_e |Y_i(e)| / w_e
//
// where |Y_i(e)| is the number of elements crossing link e in round i, and
// the cost of the protocol is the sum over rounds. Costs are measured in
// elements; Report.BitCost converts to bits.
//
// Unlike a pure cost calculator, the engine actually delivers every
// message, so protocol outputs are real and can be verified against
// reference implementations. Per-node computation can run concurrently;
// determinism is preserved by merging per-node outboxes in compute-node
// order.
//
// Protocols run on the planned Exchange API (Engine.Exchange / Plan /
// Execute), which accounts a whole round of declared transfers in O(V + M)
// via LCA tree-difference counting. The serial per-message Round API
// (BeginRound / Send / Multicast / Finish) walks the tree path of every
// transfer and exists only as the reference the exchange is tested against.
//
// Every fork — Plan's per-node callbacks, the sharded accounting tally, and
// the protocol kernels' per-home compute (Engine.Pool) — goes through
// internal/par under the one WithWorkers budget.
//
// The engine owns a reusable round arena: outbox buffers, shard tallies,
// stamp sets, and (under WithLeanStats) the per-round accounting arrays
// are allocated once and recycled across rounds, so a steady-state
// exchange round performs no heap allocation. With more than one worker,
// round accounting runs behind the protocol's planning of the next round
// (Exchange.ExecuteAsync); Report and the next Execute synchronize on it.
package netsim

import (
	"fmt"
	"math"
	"sync"

	"topompc/internal/obs"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// Tag distinguishes message payloads within a protocol (e.g. R-tuples from
// S-tuples in a join). Tags are protocol-defined; the engine only carries
// them.
type Tag uint8

// Common tags used by the built-in protocols.
const (
	TagData Tag = iota
	TagR
	TagS
	TagSample
	TagSplitter
	TagT
)

// Message is a batch of elements sent from one compute node to another.
type Message struct {
	From topology.NodeID
	To   topology.NodeID
	Tag  Tag
	Keys []uint64
}

// nodeInbox stores one node's delivered messages in columnar form: the
// per-message headers are parallel arrays (sender, tag, and the exclusive
// end of the payload in the shared key pool), so a delivered message costs
// 9 bytes of header instead of a 40-byte Message struct, and the payloads
// of a round live in one contiguous pool per receiver instead of pointing
// into sender-owned buffers. Deliveries copy their keys into the pool;
// the arrays are reset (not freed) between rounds, so steady-state
// delivery stays allocation-free once each receiver reaches its
// high-water mark.
type nodeInbox struct {
	from []topology.NodeID
	tag  []Tag
	end  []int32 // pool offset one past message i's keys
	pool []uint64
}

func (ib *nodeInbox) push(from topology.NodeID, tag Tag, keys []uint64) {
	ib.from = append(ib.from, from)
	ib.tag = append(ib.tag, tag)
	ib.pool = append(ib.pool, keys...)
	ib.end = append(ib.end, int32(len(ib.pool)))
}

// reserve makes room for msgs more messages carrying keys keys in total, so
// the pushes that follow never regrow an array: each array short of room is
// reallocated once, at exactly the size the round needs. It panics before
// allocating when the pool would pass the int32 offsets of end, which push
// would otherwise wrap silently.
func (ib *nodeInbox) reserve(msgs int, keys int64) {
	if int64(len(ib.pool))+keys > math.MaxInt32 {
		panic(fmt.Sprintf("netsim: inbox overflow: %d keys for one receiver in one round exceed the int32 pool offsets", int64(len(ib.pool))+keys))
	}
	ib.from = reserveSlice(ib.from, msgs)
	ib.tag = reserveSlice(ib.tag, msgs)
	ib.end = reserveSlice(ib.end, msgs)
	ib.pool = reserveSlice(ib.pool, int(keys))
}

// reserveSlice returns s with room for n more elements, reallocating to
// exactly len(s)+n when the capacity is short.
func reserveSlice[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	ns := make([]T, len(s), len(s)+n)
	copy(ns, s)
	return ns
}

// inboxShrinkMin is the pool capacity (keys) below which an inbox is never
// shrunk; small pools are noise and reallocating them would only churn.
const inboxShrinkMin = 1 << 16

func (ib *nodeInbox) reset() {
	// Contraction-style protocols decay from a large first-phase volume to
	// near nothing; halve a pool whose last round used at most a quarter of
	// its capacity so the key pools step down with the traffic instead of
	// pinning the peak to the end of the run. Halving (not trimming to fit)
	// keeps the reallocation geometric, and the trigger depends only on
	// delivered volume, so it is identical for every worker count.
	if c := cap(ib.pool); c >= inboxShrinkMin && len(ib.pool) <= c/4 {
		ib.pool = make([]uint64, 0, c/2)
		ib.from = make([]topology.NodeID, 0, cap(ib.from)/2)
		ib.tag = make([]Tag, 0, cap(ib.tag)/2)
		ib.end = make([]int32, 0, cap(ib.end)/2)
		return
	}
	ib.from = ib.from[:0]
	ib.tag = ib.tag[:0]
	ib.end = ib.end[:0]
	ib.pool = ib.pool[:0]
}

// Inbox is a read-only view of the messages delivered to one node in the
// previous round. The view and the Keys of every materialized Message
// alias engine-owned buffers: callers must not modify them and must not
// retain them across rounds.
type Inbox struct {
	ib *nodeInbox
	to topology.NodeID
}

// Len reports the number of delivered messages.
func (in Inbox) Len() int { return len(in.ib.end) }

// Messages materializes the whole inbox as a fresh slice. It allocates;
// protocol hot paths should iterate with Len/At instead.
func (in Inbox) Messages() []Message {
	out := make([]Message, in.Len())
	for i := range out {
		out[i] = in.At(i)
	}
	return out
}

// At materializes message i. The Keys slice aliases the inbox pool.
func (in Inbox) At(i int) Message {
	var lo int32
	if i > 0 {
		lo = in.ib.end[i-1]
	}
	hi := in.ib.end[i]
	return Message{
		From: in.ib.from[i],
		To:   in.to,
		Tag:  in.ib.tag[i],
		Keys: in.ib.pool[lo:hi:hi],
	}
}

// KeyCount reports how many keys the delivered tag messages carry in total.
func (in Inbox) KeyCount(tag Tag) int {
	n, lo := 0, int32(0)
	for i, hi := range in.ib.end {
		if in.ib.tag[i] == tag {
			n += int(hi - lo)
		}
		lo = hi
	}
	return n
}

// AppendKeys appends the payloads of the delivered tag messages to dst, in
// delivery order, and returns the extended slice.
func (in Inbox) AppendKeys(dst []uint64, tag Tag) []uint64 {
	lo := int32(0)
	for i, hi := range in.ib.end {
		if in.ib.tag[i] == tag {
			dst = append(dst, in.ib.pool[lo:hi]...)
		}
		lo = hi
	}
	return dst
}

// Keys is the concatenated payload of the delivered tag messages as a fresh
// slice the caller owns, allocated once at its final size; nil when there
// are none. It is the receive step of a node's local compute.
func (in Inbox) Keys(tag Tag) []uint64 {
	n := in.KeyCount(tag)
	if n == 0 {
		return nil
	}
	return in.AppendKeys(make([]uint64, 0, n), tag)
}

// Engine executes rounds on a fixed tree and accumulates cost statistics.
type Engine struct {
	t  *topology.Tree
	sc *topology.SteinerScratch

	rounds    []RoundStats
	inboxCur  []nodeInbox
	inboxNext []nodeInbox

	pathBuf []topology.EdgeID
	inRound bool

	workers int     // WithWorkers value; 0 = GOMAXPROCS
	cindex  []int32 // NodeID -> compute index, -1 for routers

	// Both pools carry the WithWorkers budget. A par.Pool has one driver at
	// a time, and under ExecuteAsync the accounting goroutine forks tally
	// shards while the protocol driver forks Plan and kernel shards, so
	// each side owns a Pool value.
	pool *par.Pool // driver side: Plan and, through Pool(), the kernels
	acct *par.Pool // accounting side: tally shards

	dupStamp []int32 // multicast destination dedup (stamp set)
	dupCur   int32

	// What the exchange being executed will deliver, by receiver compute
	// index: message and key counts, and the receivers with any (the only
	// entries to reserve for and to zero again).
	rsvMsgs []int32
	rsvKeys []int64
	rsvList []int32

	tallies []*shardTally // per-shard exchange accounting scratch

	// Round arena: the two exchange buffers alternate across rounds so the
	// asynchronous accounting of round r can still read round r's outboxes
	// while the protocol plans round r+1 into the other buffer. With lean
	// stats the per-round accounting arrays are also reused round over
	// round instead of being retained by RoundStats.
	exbuf  [2]Exchange
	exturn int

	leanStats  bool
	arTraffic  []int64 // lean mode: reused per-round edge traffic
	arSent     []int64 // lean mode: reused per-round node sent
	arReceived []int64 // lean mode: reused per-round node received
	totEdge    []int64 // lean mode: cumulative per-edge totals
	totSent    []int64 // lean mode: cumulative per-node sent totals
	totRecv    []int64 // lean mode: cumulative per-node received totals

	pending sync.WaitGroup // outstanding asynchronous round accounting

	// Flight recorder. Both sinks are optional; with neither attached every
	// hook below reduces to a nil comparison, preserving the zero-alloc
	// steady state pinned by TestExchangeSteadyStateAllocFree. Metric
	// instruments are resolved once at construction so round accounting
	// updates them with bare atomics.
	tracer   obs.Tracer
	traceTid int64
	metrics  *obs.Registry
	mRounds  *obs.Counter
	mElems   *obs.Counter
	mCost    *obs.Histogram
	mMaxRecv *obs.Gauge
	mRecycle *obs.Counter
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the number of goroutines used by parallel planning,
// sharded exchange accounting, and the kernels forking on Pool. n <= 0
// means GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithLeanStats puts the engine in arena-stats mode: the per-round
// EdgeElems/NodeSent/NodeReceived arrays are not retained per round —
// RoundStats carries only the scalar statistics (Cost, BottleneckEdge,
// MaxReceived, Messages, Elements) and the engine folds the arrays into
// cumulative totals exposed through Report. This makes a steady-state
// exchange round allocation-free and keeps memory O(V) instead of
// O(V × rounds), which is what lets 10⁶-node topologies run protocols with
// hundreds of rounds without exhausting memory. Aggregate report queries
// (TotalCost, MPCCost, NodeTotals, MaxEdgeElems, EdgeTable) are unaffected;
// only per-round array inspection is unavailable.
func WithLeanStats() Option {
	return func(e *Engine) { e.leanStats = true }
}

// WithTracer attaches a trace sink: the engine allocates one lane and
// emits a complete event per committed round carrying the round's cost,
// bottleneck edge, and volume. A nil tracer leaves tracing disabled.
func WithTracer(tr obs.Tracer) Option {
	return func(e *Engine) { e.tracer = tr }
}

// WithMetrics attaches a metrics registry: round accounting feeds the
// netsim.* instruments (rounds, elements, round-cost histogram, arena
// recycle count). A nil registry leaves metrics disabled.
func WithMetrics(r *obs.Registry) Option {
	return func(e *Engine) { e.metrics = r }
}

// NewEngine returns an engine for the given tree with empty inboxes.
func NewEngine(t *topology.Tree, opts ...Option) *Engine {
	e := &Engine{
		t:         t,
		sc:        topology.NewSteinerScratch(t),
		inboxCur:  make([]nodeInbox, t.NumNodes()),
		inboxNext: make([]nodeInbox, t.NumNodes()),
		cindex:    make([]int32, t.NumNodes()),
		dupStamp:  make([]int32, t.NumNodes()),
		rsvMsgs:   make([]int32, t.NumCompute()),
		rsvKeys:   make([]int64, t.NumCompute()),
	}
	for v := range e.cindex {
		e.cindex[v] = -1
	}
	for i, v := range t.ComputeNodes() {
		e.cindex[v] = int32(i)
	}
	for _, o := range opts {
		o(e)
	}
	e.pool = par.New(e.workers)
	e.pool.Instrument(e.tracer, e.metrics)
	e.acct = par.New(e.workers)
	e.acct.Instrument(e.tracer, e.metrics)
	if e.tracer != nil {
		e.traceTid = e.tracer.NewTid("netsim rounds")
	}
	if e.metrics != nil {
		e.mRounds = e.metrics.Counter("netsim.rounds")
		e.mElems = e.metrics.Counter("netsim.elements")
		e.mCost = e.metrics.Histogram("netsim.round_cost")
		e.mMaxRecv = e.metrics.Gauge("netsim.max_received")
		e.mRecycle = e.metrics.Counter("netsim.arena_recycled_rounds")
	}
	return e
}

// Tracer reports the attached trace sink (nil when tracing is disabled),
// letting protocol layers running on this engine share the same trace.
func (e *Engine) Tracer() obs.Tracer { return e.tracer }

// Metrics reports the attached metrics registry (nil when disabled).
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// recordRound feeds the flight recorder once a round's statistics are
// final: metric updates plus one complete trace event on the engine's
// lane spanning open-to-accounted. Runs on the accounting goroutine for
// asynchronous exchanges; both sinks are concurrency-safe.
func (e *Engine) recordRound(slot int, t0 float64) {
	rd := &e.rounds[slot]
	if e.metrics != nil {
		e.mRounds.Inc()
		e.mElems.Add(rd.Elements)
		e.mCost.Observe(rd.Cost)
		e.mMaxRecv.SetMax(float64(rd.MaxReceived))
	}
	if e.tracer == nil {
		return
	}
	args := map[string]any{
		"round":        rd.Index,
		"cost":         rd.Cost,
		"elements":     rd.Elements,
		"messages":     rd.Messages,
		"max_received": rd.MaxReceived,
	}
	if rd.BottleneckEdge != topology.NoEdge {
		a, b := e.t.Endpoints(rd.BottleneckEdge)
		args["bottleneck_edge"] = int(rd.BottleneckEdge)
		args["bottleneck_link"] = e.t.Name(a) + "–" + e.t.Name(b)
	}
	e.tracer.Emit(obs.Event{
		Name: "round", Cat: "netsim.round", Ph: obs.PhComplete,
		Ts: t0, Dur: e.tracer.Now() - t0,
		Pid: obs.Pid, Tid: e.traceTid, Args: args,
	})
}

// Pool reports the run's worker pool, sized by WithWorkers and instrumented
// from the engine's tracer and registry. Protocol kernels shard their
// per-home compute on it between exchange rounds, so one -workers flag
// governs planning, accounting, and local computation alike. The pool has a
// single driver: fork on it only from the goroutine that drives the engine,
// never from inside a Plan callback.
func (e *Engine) Pool() *par.Pool { return e.pool }

// expect counts one message of n keys for receiver d in the exchange being
// executed. A receiver that is not a compute node panics with the counts
// cleared, leaving the engine as it was.
func (e *Engine) expect(d topology.NodeID, n int64) {
	ci := e.cindex[d]
	if ci < 0 {
		e.clearExpected()
		panic(fmt.Sprintf("netsim: receiver %d is not a compute node", d))
	}
	if e.rsvMsgs[ci] == 0 {
		e.rsvList = append(e.rsvList, ci)
	}
	e.rsvMsgs[ci]++
	e.rsvKeys[ci] += n
}

// clearExpected zeroes the per-receiver counts of expect.
func (e *Engine) clearExpected() {
	for _, ci := range e.rsvList {
		e.rsvMsgs[ci], e.rsvKeys[ci] = 0, 0
	}
	e.rsvList = e.rsvList[:0]
}

// nextStamp advances the destination-dedup stamp, resetting on wraparound.
func (e *Engine) nextStamp() int32 {
	e.dupCur++
	if e.dupCur == 0 {
		for i := range e.dupStamp {
			e.dupStamp[i] = -1
		}
		e.dupCur = 1
	}
	return e.dupCur
}

// ensureArena allocates the lean-mode accounting arrays on first use.
func (e *Engine) ensureArena() {
	if e.arTraffic == nil {
		e.arTraffic = make([]int64, e.t.NumEdges())
		e.arSent = make([]int64, e.t.NumNodes())
		e.arReceived = make([]int64, e.t.NumNodes())
		e.totEdge = make([]int64, e.t.NumEdges())
		e.totSent = make([]int64, e.t.NumNodes())
		e.totRecv = make([]int64, e.t.NumNodes())
	}
}

// Tree reports the engine's tree.
func (e *Engine) Tree() *topology.Tree { return e.t }

// Inbox reports the messages delivered to v at the end of the previous
// round as an indexed view. The view and the key slices it hands out are
// owned by the engine; callers must not modify them and must not retain
// them across rounds.
func (e *Engine) Inbox(v topology.NodeID) Inbox { return Inbox{ib: &e.inboxCur[v], to: v} }

// NumRounds reports the number of completed rounds.
func (e *Engine) NumRounds() int {
	e.pending.Wait()
	return len(e.rounds)
}

// BeginRound starts a per-message reference round. Sends read the inboxes
// of the previous round; deliveries become visible when Finish is called.
func (e *Engine) BeginRound() *Round {
	if e.inRound {
		panic("netsim: BeginRound while a round is open")
	}
	e.pending.Wait()
	e.inRound = true
	r := &Round{
		e:        e,
		traffic:  make([]int64, e.t.NumEdges()),
		sent:     make([]int64, e.t.NumNodes()),
		received: make([]int64, e.t.NumNodes()),
	}
	if e.tracer != nil {
		r.t0 = e.tracer.Now()
	}
	return r
}

// Round is one open round of the serial per-message reference API.
type Round struct {
	e        *Engine
	traffic  []int64
	sent     []int64
	received []int64
	messages int
	elements int64
	t0       float64 // trace timestamp of BeginRound (tracing only)
	done     bool
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

// Send transmits keys from one compute node to another along the unique
// tree path, charging every link once. Self-sends are free and are still
// delivered (the node keeps its own data without touching the network).
func (r *Round) Send(from, to topology.NodeID, tag Tag, keys []uint64) {
	r.checkEndpoints(from, to)
	if from != to {
		r.e.pathBuf = r.e.t.Path(r.e.pathBuf[:0], from, to)
		for _, edge := range r.e.pathBuf {
			r.traffic[edge] += int64(len(keys))
		}
		r.sent[from] += int64(len(keys))
	}
	r.deliver(from, to, tag, keys)
}

// Multicast transmits keys from one compute node to every node in dsts,
// routing along the Steiner tree of {from} ∪ dsts so that every link is
// charged once regardless of the number of destinations. This matches the
// paper's accounting for instructions like "send a to all nodes in
// V_β ∪ {h(a)}": a router replicates the element toward multiple links.
// Duplicate destinations receive a single delivery.
func (r *Round) Multicast(from topology.NodeID, dsts []topology.NodeID, tag Tag, keys []uint64) {
	r.checkEndpoints(from, dsts...)
	r.e.pathBuf = r.e.t.Steiner(r.e.pathBuf[:0], r.e.sc, from, dsts)
	if len(r.e.pathBuf) > 0 {
		// The sender emits one copy into the network; routers replicate.
		r.sent[from] += int64(len(keys))
	}
	for _, edge := range r.e.pathBuf {
		r.traffic[edge] += int64(len(keys))
	}
	// Duplicate destinations receive one delivery; dedup with a stamp set so
	// wide multicasts stay O(len(dsts)) instead of O(len(dsts)²).
	stamp := r.e.nextStamp()
	for _, d := range dsts {
		if r.e.dupStamp[d] == stamp {
			continue
		}
		r.e.dupStamp[d] = stamp
		r.deliver(from, d, tag, keys)
	}
}

func (r *Round) deliver(from, to topology.NodeID, tag Tag, keys []uint64) {
	r.messages++
	r.elements += int64(len(keys))
	if from != to {
		r.received[to] += int64(len(keys))
	}
	r.e.inboxNext[to].push(from, tag, keys)
}

// Finish closes the round: it computes the round cost, records statistics,
// and makes all deliveries visible in the inboxes.
func (r *Round) Finish() RoundStats {
	if r.done {
		panic("netsim: Finish called twice")
	}
	r.done = true
	return r.e.commitRound(r.traffic, r.sent, r.received, r.messages, r.elements, r.t0)
}

// commitRound computes the round cost from the accounted traffic, records
// the statistics, and makes all deliveries visible in the inboxes. It is
// the synchronous path of the per-message Round API; exchanges commit
// through execute/accountRound instead.
func (e *Engine) commitRound(traffic, sent, received []int64, messages int, elements int64, t0 float64) RoundStats {
	e.inRound = false

	slot := len(e.rounds)
	e.rounds = append(e.rounds, RoundStats{Index: slot, Messages: messages, Elements: elements})
	e.finishStats(slot, traffic, sent, received)
	e.recordRound(slot, t0)
	e.swapInboxes()
	return e.rounds[slot]
}

// finishStats fills the cost fields of a reserved stats slot from the
// accounted arrays. In lean mode the arrays are folded into the cumulative
// totals and zeroed for reuse; otherwise they are retained by the slot.
func (e *Engine) finishStats(slot int, traffic, sent, received []int64) {
	cost := 0.0
	var maxEdge topology.EdgeID = topology.NoEdge
	for edge, n := range traffic {
		if n == 0 {
			continue
		}
		c := float64(n) / e.t.Bandwidth(topology.EdgeID(edge))
		if c > cost {
			cost = c
			maxEdge = topology.EdgeID(edge)
		}
	}
	var maxRecv int64
	for _, n := range received {
		if n > maxRecv {
			maxRecv = n
		}
	}
	rd := &e.rounds[slot]
	rd.Cost = cost
	rd.BottleneckEdge = maxEdge
	rd.MaxReceived = maxRecv
	if !e.leanStats {
		rd.EdgeElems = traffic
		rd.NodeSent = sent
		rd.NodeReceived = received
		return
	}
	e.ensureArena()
	for i, n := range traffic {
		if n != 0 {
			e.totEdge[i] += n
			traffic[i] = 0
		}
	}
	for v := range sent {
		if sent[v] != 0 {
			e.totSent[v] += sent[v]
			sent[v] = 0
		}
		if received[v] != 0 {
			e.totRecv[v] += received[v]
			received[v] = 0
		}
	}
}

// swapInboxes makes the round's deliveries current and recycles the old
// inboxes for the next round.
func (e *Engine) swapInboxes() {
	for v := range e.inboxCur {
		e.inboxCur[v].reset()
	}
	e.inboxCur, e.inboxNext = e.inboxNext, e.inboxCur
}

// Report snapshots the cost statistics of all completed rounds.
func (e *Engine) Report() *Report {
	e.pending.Wait()
	r := &Report{Tree: e.t, Rounds: append([]RoundStats(nil), e.rounds...)}
	if e.leanStats && e.totEdge != nil {
		r.EdgeTotals = append([]int64(nil), e.totEdge...)
		r.SentTotals = append([]int64(nil), e.totSent...)
		r.RecvTotals = append([]int64(nil), e.totRecv...)
	}
	return r
}
