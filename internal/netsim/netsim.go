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
// elements; at b bits per element the cost in bits is b times that.
//
// Unlike a pure cost calculator, the engine actually delivers every
// message, so protocol outputs are real and can be verified against
// reference implementations.
//
// A round is an Exchange: Plan collects every compute node's transfers
// into its outbox — a range of the op log its shard of senders shares, so
// queueing is an append and a walk reads the log front to back — and Execute
// makes two walks over the outboxes, each sharded by contiguous sender
// range. The first accounts every transfer in O(1) (LCA tree-difference
// counting), resolves every receiver to its compute index once, and counts
// what each receiver gets from each shard; a prefix over those counts lays
// the round's inboxes out in one arena; the second walk writes one header
// row and the keys of every delivery where its shard's cursor points, and
// truncates the plan behind itself. Shards write disjoint rows, and a
// receiver's rows read compute-node order then op order, so inbox bytes and
// every statistic are the same at every worker count. Price runs the first
// walk and the sweep alone: it reports the cost Execute would charge and
// drops the plan, so a protocol can price candidate rounds on the actual
// instance and execute the cheapest.
//
// Every fork — Plan's per-node callbacks, the two walks, and the protocol
// kernels' per-home compute (Engine.Pool) — goes through internal/par on
// the engine's one pool under the WithWorkers budget.
//
// Outboxes, op logs, inbox arenas, shard tallies and (under WithLeanStats)
// the per-round accounting arrays are allocated once and recycled across
// rounds, so a steady-state round performs no heap allocation. With more
// than one worker, ExecuteAsync leaves the serial remainder of a round
// (merging the shards' edge deltas, the subtree-sum sweep that also finds
// the round's cost, folding the node counts into the totals) to one
// background goroutine while the protocol plans the next round; Report and
// the next Execute synchronize on it.
package netsim

import (
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

// msgHdr is the header row of one delivery: its sender, the exclusive end of
// its payload counted from the receiver's first key, and its tag.
type msgHdr struct {
	from topology.NodeID
	end  int32
	tag  Tag
}

// inboxArena holds one round's deliveries to every compute node in CSR
// form. Receiver ci (a compute index) owns header rows off[ci]:off[ci+1]
// and keys koff[ci]:koff[ci+1] of the pool; a row's end counts from the
// receiver's first key, so a delivered message costs 12 bytes of header,
// written as one record, and one receiver's keys must fit int32 offsets
// however large the round is. The engine keeps two arenas, the one protocols
// read and the one the round in flight writes, and every round rewrites its
// arena from row 0.
type inboxArena struct {
	off  []int
	koff []int
	hdr  []msgHdr
	pool []uint64

	peakRows, peakKeys int // recent peak of rows and keys, see fit
}

// newInboxArena returns an arena of empty inboxes for nc compute nodes.
func newInboxArena(nc int) *inboxArena {
	return &inboxArena{off: make([]int, nc+1), koff: make([]int, nc+1)}
}

// put writes one delivery at c, the cursor of its receiver, and advances c
// past it.
func (a *inboxArena) put(c *cursor, from topology.NodeID, tag Tag, keys []uint64) {
	c.key += copy(a.pool[c.key:], keys)
	a.hdr[c.row] = msgHdr{from: from, end: int32(c.key - c.base), tag: tag}
	c.row++
}

// arenaShrinkMin is the capacity (elements) below which an arena array is
// never shrunk; small arrays are noise and reallocating them would only
// churn.
const arenaShrinkMin = 1 << 16

// fit sizes the arena for a round of rows messages carrying keys keys.
// Nothing survives from the round before, so an array that is too small is
// replaced by one of exactly the size needed and nothing is copied.
//
// Contraction-style protocols decay from a large first-phase volume to near
// nothing: an array whose recent peak is at most a quarter of its capacity
// is replaced by one of half the capacity, so the arena steps down with the
// traffic instead of pinning the first phase to the end of the run. The
// recent peak is the largest round the arena has held, forgotten at a
// quarter per round: a volume that falls for good gives back half the arena
// every few rounds, while the heavy and light rounds of one contraction
// phase keep it — a trigger on the last round alone would halve the whole
// arena round by round through the light tail of every phase and allocate
// it again for the next. Halving, not trimming to fit, keeps the
// reallocation geometric, and the trigger depends only on delivered volume,
// so it is identical for every worker count.
func (a *inboxArena) fit(rows, keys int) {
	a.peakRows = max(rows, a.peakRows-a.peakRows/4)
	a.peakKeys = max(keys, a.peakKeys-a.peakKeys/4)
	a.hdr = fitSlice(a.hdr, rows, a.peakRows)
	a.pool = fitSlice(a.pool, keys, a.peakKeys)
}

// fitSlice returns a slice of length n, reusing s's array unless it is too
// small or the recent peak says it is four times too large.
func fitSlice[T any](s []T, n, peak int) []T {
	switch c := cap(s); {
	case c < n:
		return make([]T, n)
	case c >= arenaShrinkMin && peak <= c/4:
		return make([]T, n, c/2)
	}
	return s[:n]
}

// Inbox is a read-only view of the messages delivered to one node in the
// previous round. The view and the Keys of every materialized Message
// alias engine-owned buffers: callers must not modify them and must not
// retain them across rounds.
type Inbox struct {
	to   topology.NodeID
	hdr  []msgHdr // end: pool offset one past message i's keys
	pool []uint64
}

// Len reports the number of delivered messages.
func (in Inbox) Len() int { return len(in.hdr) }

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
		lo = in.hdr[i-1].end
	}
	h := in.hdr[i]
	return Message{
		From: h.from,
		To:   in.to,
		Tag:  h.tag,
		Keys: in.pool[lo:h.end:h.end],
	}
}

// KeyCount reports how many keys the delivered tag messages carry in total.
func (in Inbox) KeyCount(tag Tag) int {
	n, lo := 0, int32(0)
	for _, h := range in.hdr {
		if h.tag == tag {
			n += int(h.end - lo)
		}
		lo = h.end
	}
	return n
}

// AppendKeys appends the payloads of the delivered tag messages to dst, in
// delivery order, and returns the extended slice.
func (in Inbox) AppendKeys(dst []uint64, tag Tag) []uint64 {
	lo := int32(0)
	for _, h := range in.hdr {
		if h.tag == tag {
			dst = append(dst, in.pool[lo:h.end]...)
		}
		lo = h.end
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
	t *topology.Tree

	rounds    []RoundStats
	inboxCur  *inboxArena // the previous round's deliveries, read by Inbox
	inboxNext *inboxArena // written by the round being executed
	inRound   bool

	workers int // WithWorkers value; 0 = GOMAXPROCS

	pool    *par.Pool     // Plan, the two walks of Execute and, through Pool(), the kernels
	tallies []*shardTally // per-shard scratch of the walks

	// Round arena: the exchange's outboxes and op logs are reused round over
	// round. With lean stats so are the per-round accounting arrays, instead
	// of being retained by RoundStats.
	ex Exchange

	leanStats  bool
	arSent     []int64 // lean mode: reused per-round node sent
	arReceived []int64 // lean mode: reused per-round node received
	totEdge    []int64 // lean mode: cumulative per-edge totals
	totSent    []int64 // lean mode: cumulative per-node sent totals
	totRecv    []int64 // lean mode: cumulative per-node received totals
	priceEdge  []int64 // Price's per-edge sweep target, zero between calls

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
	mPriced  *obs.Counter
	mElems   *obs.Counter
	mCost    *obs.Histogram
	mMaxRecv *obs.Gauge
	mRecycle *obs.Counter
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the number of goroutines used by parallel planning,
// the sharded walks of Execute, and the kernels forking on Pool. n <= 0
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
// bottleneck edge, and volume, and an instant event with the cost and
// bottleneck edge of every priced round. A nil tracer leaves tracing
// disabled.
func WithTracer(tr obs.Tracer) Option {
	return func(e *Engine) { e.tracer = tr }
}

// WithMetrics attaches a metrics registry: round accounting feeds the
// netsim.* instruments (rounds, priced rounds, elements, round-cost
// histogram, arena recycle count). A nil registry leaves metrics disabled.
func WithMetrics(r *obs.Registry) Option {
	return func(e *Engine) { e.metrics = r }
}

// NewEngine returns an engine for the given tree with empty inboxes.
func NewEngine(t *topology.Tree, opts ...Option) *Engine {
	e := &Engine{
		t:         t,
		inboxCur:  newInboxArena(t.NumCompute()),
		inboxNext: newInboxArena(t.NumCompute()),
	}
	for _, o := range opts {
		o(e)
	}
	e.pool = par.New(e.workers)
	e.pool.Instrument(e.tracer, e.metrics)
	if e.tracer != nil {
		e.traceTid = e.tracer.NewTid("netsim rounds")
	}
	if e.metrics != nil {
		e.mRounds = e.metrics.Counter("netsim.rounds")
		e.mPriced = e.metrics.Counter("netsim.priced_rounds")
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
	e.traceBottleneck(args, rd.BottleneckEdge)
	e.tracer.Emit(obs.Event{
		Name: "round", Cat: "netsim.round", Ph: obs.PhComplete,
		Ts: t0, Dur: e.tracer.Now() - t0,
		Pid: obs.Pid, Tid: e.traceTid, Args: args,
	})
}

// traceBottleneck adds a round's bottleneck edge, by id and by the names of
// its endpoints, to the args of its trace event; nothing when no element
// crossed a link.
func (e *Engine) traceBottleneck(args map[string]any, edge topology.EdgeID) {
	if edge == topology.NoEdge {
		return
	}
	a, b := e.t.Endpoints(edge)
	args["bottleneck_edge"] = int(edge)
	args["bottleneck_link"] = e.t.Name(a) + "–" + e.t.Name(b)
}

// Pool reports the run's worker pool, sized by WithWorkers and instrumented
// from the engine's tracer and registry. Protocol kernels shard their
// per-home compute on it between exchange rounds, so one -workers flag
// governs planning, delivery, accounting, and local computation alike. The
// pool has a single driver: fork on it only from the goroutine that drives
// the engine, never from inside a Plan callback.
func (e *Engine) Pool() *par.Pool { return e.pool }

// computeIndex reports v's position in ComputeNodes order, -1 when v is a
// router or no node of the tree: a receiver id is caller input, and
// Tree.ComputeIndex indexes unchecked.
func (e *Engine) computeIndex(v topology.NodeID) int {
	if uint(v) >= uint(e.t.NumNodes()) {
		return -1
	}
	return e.t.ComputeIndex(v)
}

// ensureArena allocates the lean-mode accounting arrays on first use.
func (e *Engine) ensureArena() {
	if e.arSent == nil {
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
// round as an indexed view; a router's is empty. The view and the key slices
// it hands out are owned by the engine; callers must not modify them and
// must not retain them across rounds.
func (e *Engine) Inbox(v topology.NodeID) Inbox {
	ci := e.computeIndex(v)
	if ci < 0 {
		return Inbox{to: v}
	}
	a := e.inboxCur
	return Inbox{
		to:   v,
		hdr:  a.hdr[a.off[ci]:a.off[ci+1]],
		pool: a.pool[a.koff[ci]:a.koff[ci+1]],
	}
}

// NumRounds reports the number of completed rounds.
func (e *Engine) NumRounds() int {
	e.pending.Wait()
	return len(e.rounds)
}

// retainStats keeps a round's accounted arrays: with the round's stats, or
// in lean mode folded into the cumulative totals and zeroed for reuse (the
// edge counts were added to the totals as they were computed).
func (e *Engine) retainStats(rd *RoundStats, traffic, sent, received []int64) {
	if !e.leanStats {
		rd.EdgeElems, rd.NodeSent, rd.NodeReceived = traffic, sent, received
		return
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
