package netsim

import (
	"fmt"
	"math"

	"topompc/internal/obs"
	"topompc/internal/topology"
)

// Exchange is a planned communication round: protocols declare every
// transfer of the round up front — batched unicasts and multicasts per
// sender — and Execute then routes, accounts, and delivers the whole plan.
//
// Execute walks the outboxes twice, each walk forked over the same
// contiguous sender ranges on the engine's pool. The first walk aggregates
// per-edge traffic with tree-difference counting over the LCA index — each
// unicast contributes O(1) node deltas, each multicast charges its Steiner
// tree through the terminal virtual tree — and counts, per shard, the
// messages and keys every receiver is about to get. A serial prefix over
// (receiver, shard) turns the counts into row and key offsets in the
// round's inbox arena, shard w's rows for a receiver after every lower
// shard's. The second walk copies headers and keys to those rows. Nothing
// per message is serial, per-edge sums are order-independent, and every
// inbox reads compute-node order, then op order, at every worker count.
//
// What is left of the round is serial and independent of the deliveries:
// merging the shards' edge deltas, the one subtree-sum sweep that turns
// them into edge counts (O(V) for the round) and the cost statistics.
// ExecuteAsync leaves that to a background goroutine.
//
// The exchange is owned by the engine: its outboxes and op logs persist
// across rounds, so a steady-state plan/execute cycle allocates nothing.
// The delivery walk is the last reader of a plan and truncates it as it
// goes, so ExecuteAsync can finish the accounting of round r in the
// background while the protocol plans round r+1 into the same buffers.
//
// One exchange is open on an engine at a time; it occupies the engine from
// Exchange() until Execute(), or until Price() reports what Execute would
// charge and drops the plan instead.
type Exchange struct {
	e    *Engine
	outs []Outbox // one per compute node, in ComputeNodes order
	logs []opLog  // one per shard of senders the pool forks a walk into
	t0   float64  // trace timestamp of Exchange() (tracing only)
	done bool

	// The executing round's per-node element counts, written by the tally
	// walk: the engine's reused arrays under lean stats, otherwise fresh
	// ones the round's stats retain.
	sent, received []int64

	// Shard bodies handed to par.Blocks, built once: a closure made per call
	// would escape and break the zero-alloc steady state.
	planFn       func(v topology.NodeID, out *Outbox) // the Plan in flight
	planShard    func(shard, lo, hi int)
	tallyShard   func(shard, lo, hi int)
	deliverShard func(shard, lo, hi int)
}

// Exchange opens a planned round. Transfers read the inboxes of the
// previous round; deliveries become visible when Execute is called.
//
// The returned exchange is the engine's one buffer, recycled across rounds;
// it stays valid only until its Execute (or ExecuteAsync) completes the
// round.
func (e *Engine) Exchange() *Exchange {
	if e.inRound {
		panic("netsim: Exchange while a round is open")
	}
	e.inRound = true
	x := &e.ex
	if x.e == nil {
		x.e = e
		x.outs = make([]Outbox, e.t.NumCompute())
		x.logs = make([]opLog, len(e.shardSet()))
		// par.Blocks forks Plan and both walks over the same sender ranges,
		// shard w of k covering [w·n/k, (w+1)·n/k): a log has one writer.
		for w, n, k := 0, len(x.outs), len(x.logs); w < k; w++ {
			for i := w * n / k; i < (w+1)*n/k; i++ {
				x.outs[i].log = &x.logs[w]
			}
		}
		nodes := e.t.ComputeNodes()
		x.planShard = func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				x.planFn(nodes[i], &x.outs[i])
			}
		}
		x.tallyShard = func(shard, lo, hi int) {
			x.tallyOps(e.tallies[shard], &x.logs[shard], lo, hi)
		}
		x.deliverShard = func(shard, lo, hi int) {
			x.deliverOps(e.tallies[shard], &x.logs[shard], lo, hi)
		}
	} else if e.mRecycle != nil {
		e.mRecycle.Inc()
	}
	if e.tracer != nil {
		x.t0 = e.tracer.Now()
	}
	x.done = false
	return x
}

// Out returns the outbox of compute node v for direct planning (e.g. a
// coordinator broadcasting splitters). The outbox stays valid until
// Execute.
func (x *Exchange) Out(v topology.NodeID) *Outbox {
	if x.done {
		panic("netsim: Out on executed exchange")
	}
	i := x.e.computeIndex(v)
	if i < 0 {
		panic(fmt.Sprintf("netsim: sender %d is not a compute node", v))
	}
	return &x.outs[i]
}

// Plan runs fn concurrently for every compute node, collecting the queued
// transfers into the node's outbox. fn typically reads Engine.Inbox(v)
// (safe: inboxes are read-only during an exchange) plus protocol-local
// state for v, performs local computation, and queues sends. Plan may be
// called several times; transfers accumulate.
func (x *Exchange) Plan(fn func(v topology.NodeID, out *Outbox)) {
	if x.done {
		panic("netsim: Plan on executed exchange")
	}
	x.planFn = fn
	x.e.pool.Blocks("netsim plan", len(x.outs), x.planShard)
	x.planFn = nil
}

// cursor is one (sender shard, receiver) cell of a round. The tally walk
// counts in it the messages and keys the shard's senders address to the
// receiver; the prefix replaces the counts by the arena row and pool index
// of the shard's first delivery to that receiver, next to the pool index of
// the receiver's first key, and the delivery walk advances them.
type cursor struct{ row, key, base int }

// shardTally is one shard's state for the two walks: a path accumulator
// for edge traffic, the cursors by receiver compute index, and a private
// stamp set (by compute index too) for multicast destination dedup.
type shardTally struct {
	acc   *topology.PathAccumulator
	cur   []cursor
	stamp []int32
	epoch int32
	terms []topology.NodeID
	bad   topology.NodeID // first receiver that is not a compute node, or NoNode
}

// tallyOps is the first walk over the outboxes in [lo, hi): it charges
// every op to the shard's accumulator and, unless the round is only priced,
// to the round's sent/received arrays, and counts its deliveries in the
// shard's cursors. It resolves every receiver once: a unicast's to and a
// multicast's packed destinations hold compute indices from here on. It
// stops at a receiver that is not a compute node, leaving it in s.bad; the
// refused plan is discarded.
//
// Only the shard that owns a sender writes that sender's sent entry. The
// received entry of a receiver is what the prefix finds delivered to it
// less what it sent itself, so the walk writes only the second part, again
// at the sender: no per-node array is per shard.
func (x *Exchange) tallyOps(s *shardTally, l *opLog, lo, hi int) {
	e := x.e
	nodes := e.t.ComputeNodes()
	s.bad = topology.NoNode
	for i := lo; i < hi; i++ {
		ob := &x.outs[i]
		if ob.lo == ob.hi {
			continue
		}
		from := nodes[i]
		var sent, self int64
		ops, dsts := l.ops[ob.lo:ob.hi], l.dsts
		for j := range ops {
			o := &ops[j]
			n := len(o.keys)
			if o.to != topology.NoNode {
				ci := e.computeIndex(o.to)
				if ci < 0 {
					s.bad = o.to
					return
				}
				c := &s.cur[ci]
				c.row++
				c.key += n
				if o.to == from {
					self += int64(n)
				} else {
					s.acc.AddPath(from, o.to, int64(n))
					sent += int64(n)
				}
				o.to = topology.NodeID(ci)
				continue
			}
			// Multicast: charge the Steiner tree of {from} ∪ dsts once and
			// count one delivery per distinct destination. The compute
			// indices of the distinct destinations are packed back over the
			// op's list, so the delivery walk needs no stamps and no lookup.
			s.epoch++
			if s.epoch == 0 {
				for k := range s.stamp {
					s.stamp[k] = -1
				}
				s.epoch = 1
			}
			s.terms = append(s.terms[:0], from)
			external := false
			k := o.dlo
			for _, d := range dsts[o.dlo:o.dhi] {
				ci := e.computeIndex(d)
				if ci < 0 {
					s.bad = d
					return
				}
				if s.stamp[ci] == s.epoch {
					continue
				}
				s.stamp[ci] = s.epoch
				dsts[k] = topology.NodeID(ci)
				k++
				c := &s.cur[ci]
				c.row++
				c.key += n
				if d == from {
					self += int64(n)
				} else {
					external = true
				}
				s.terms = append(s.terms, d)
			}
			o.dhi = k
			if external {
				// The sender emits one copy into the network; routers
				// replicate along the Steiner tree.
				sent += int64(n)
				s.acc.AddSteiner(s.terms, int64(n))
			}
		}
		if x.sent == nil {
			continue // priced, not executed: no node counts
		}
		if sent != 0 {
			x.sent[from] += sent
		}
		if self != 0 {
			x.received[from] -= self
		}
	}
}

// deliverOps is the second walk over the outboxes in [lo, hi): it copies
// every delivery to the arena row and pool range the shard's cursor for its
// receiver points at. Cursors of different shards cover disjoint rows. It is
// the plan's last reader: it leaves the outboxes empty and the cursors zero.
func (x *Exchange) deliverOps(s *shardTally, l *opLog, lo, hi int) {
	a := x.e.inboxNext
	nodes := x.e.t.ComputeNodes()
	for i := lo; i < hi; i++ {
		ob := &x.outs[i]
		if ob.lo == ob.hi {
			continue
		}
		from := nodes[i]
		ops, dsts := l.ops[ob.lo:ob.hi], l.dsts
		ob.empty()
		for j := range ops {
			o := &ops[j]
			if o.to != topology.NoNode {
				a.put(&s.cur[o.to], from, o.tag, o.keys)
				continue
			}
			for _, ci := range dsts[o.dlo:o.dhi] {
				a.put(&s.cur[ci], from, o.tag, o.keys)
			}
		}
	}
	clear(s.cur)
	l.reset()
}

// shardSet returns the engine's cached tally states, one per shard the
// pool forks a round into, creating them on first use. Accumulators and
// stamp sets self-reset between rounds; the cursors are zeroed by the
// delivery walk.
func (e *Engine) shardSet() []*shardTally {
	n := min(e.pool.Workers(), e.t.NumCompute())
	for len(e.tallies) < max(n, 1) {
		e.tallies = append(e.tallies, &shardTally{
			acc:   topology.NewPathAccumulator(e.t),
			cur:   make([]cursor, e.t.NumCompute()),
			stamp: make([]int32, e.t.NumCompute()),
			bad:   topology.NoNode,
		})
	}
	return e.tallies
}

// Execute routes all declared transfers: per-edge traffic is aggregated in
// O(V + M) with sharded accumulators, deliveries are laid out in the inbox
// arena in compute-node order, and the round is committed. The exchange
// cannot be reused afterwards.
func (x *Exchange) Execute() RoundStats {
	return x.e.rounds[x.execute(false)]
}

// ExecuteAsync is Execute with the serial remainder of the round deferred
// to a background goroutine: deliveries are visible (and the next round
// may be opened and planned) as soon as it returns, while edge traffic and
// the round's cost statistics are finalized concurrently. Report,
// NumRounds, and the next Execute synchronize on the pending remainder, so
// observable statistics are identical to Execute. With a single worker the
// remainder runs inline and ExecuteAsync is equivalent to Execute.
func (x *Exchange) ExecuteAsync() {
	x.execute(x.e.pool.Workers() > 1)
}

// execute accounts and delivers the plan on the caller's goroutine,
// reserves the round's stats slot and runs the remainder of the round,
// behind the caller when async. It returns the reserved slot index.
//
// A plan that names a receiver which is not a compute node, or sends one
// receiver more keys than int32 offsets address, panics before anything
// the engine publishes has changed: inboxes, rounds and totals are those
// of the round before, and the engine is free to open the next exchange.
func (x *Exchange) execute(async bool) int {
	if x.done {
		panic("netsim: Execute called twice")
	}
	x.done = true
	e := x.e

	// The previous round's remainder reads the shard tallies and, under lean
	// stats, owns the accounting arrays this round is about to write.
	e.pending.Wait()
	if e.leanStats {
		e.ensureArena()
		x.sent, x.received = e.arSent, e.arReceived
	} else {
		x.sent = make([]int64, e.t.NumNodes())
		x.received = make([]int64, e.t.NumNodes())
	}
	shards := x.tally()

	// Lay out the arena: receiver by receiver, shard by shard.
	a := e.inboxNext
	nodes := e.t.ComputeNodes()
	rows, keys := 0, 0
	var maxRecv int64
	for ci, v := range nodes {
		a.off[ci], a.koff[ci] = rows, keys
		for _, s := range shards {
			if c := s.cur[ci]; c.row != 0 {
				s.cur[ci] = cursor{row: rows, key: keys, base: a.koff[ci]}
				rows += c.row
				keys += c.key
			}
		}
		if got := keys - a.koff[ci]; got > math.MaxInt32 {
			x.reject(fmt.Sprintf("netsim: inbox overflow: %d keys for one receiver in one round exceed the int32 pool offsets", got))
		} else if got != 0 {
			x.received[v] += int64(got)
			maxRecv = max(maxRecv, x.received[v])
		}
	}
	a.off[len(nodes)], a.koff[len(nodes)] = rows, keys
	a.fit(rows, keys)
	e.pool.Blocks("netsim deliver", len(x.outs), x.deliverShard)

	e.inboxCur, e.inboxNext = e.inboxNext, e.inboxCur
	e.inRound = false
	slot := len(e.rounds)
	e.rounds = append(e.rounds, RoundStats{Index: slot, Messages: rows, Elements: int64(keys), MaxReceived: maxRecv})
	if async {
		e.pending.Add(1)
		go e.accountRound(slot, x.t0, x.sent, x.received, true)
	} else {
		e.accountRound(slot, x.t0, x.sent, x.received, false)
	}
	return slot
}

// tally runs the first walk over the outboxes on the pool and returns the
// shard states it filled. A receiver that is not a compute node rejects the
// plan.
func (x *Exchange) tally() []*shardTally {
	shards := x.e.shardSet()
	x.e.pool.Blocks("netsim tally", len(x.outs), x.tallyShard)
	for _, s := range shards {
		if s.bad != topology.NoNode {
			// The lowest shard's is the first in compute-node, then op order.
			x.reject(fmt.Sprintf("netsim: receiver %d is not a compute node", s.bad))
		}
	}
	return shards
}

// Price reports what Execute would charge for the planned round, its cost
// and bottleneck edge, without running it. The tally walk runs as it does for
// Execute, the shards' edge deltas are merged and swept into an
// engine-owned scratch array, and the plan is then discarded and the exchange
// closed. No round is recorded, no inbox changes and the Report does not see
// it. The walk reads each op's receivers and the length of its keys, never
// the keys, so a protocol may price a candidate round whose payloads are
// placeholders of the right length, and then plan and execute the one it
// chooses. A receiver that is not a compute node panics as in Execute, and
// leaves the engine as free to open the next exchange.
func (x *Exchange) Price() (cost float64, bottleneck topology.EdgeID) {
	if x.done {
		panic("netsim: Price on executed exchange")
	}
	x.done = true
	e := x.e
	// The previous round's remainder may still be reading the shard tallies.
	e.pending.Wait()
	x.sent, x.received = nil, nil
	x.tally()
	if e.priceEdge == nil {
		e.priceEdge = make([]int64, e.t.NumEdges())
	}
	cost, bottleneck = e.mergedDeltas().FlushInto(e.priceEdge)
	clear(e.priceEdge)
	x.discard()
	e.mPriced.Inc()
	if e.tracer != nil {
		args := map[string]any{"cost": cost}
		e.traceBottleneck(args, bottleneck)
		obs.Instant(e.tracer, e.traceTid, "price", "netsim.price", args)
	}
	return cost, bottleneck
}

// reject undoes what the tally walk of a refused plan wrote — the plan is
// discarded with it — closes the exchange and panics with msg.
func (x *Exchange) reject(msg string) {
	for _, s := range x.e.tallies {
		s.acc.Reset()
	}
	x.discard()
	panic(msg)
}

// discard drops a plan the tally walk has counted but no delivery will
// follow, and closes the exchange: the cursors and node counts of the walk
// are zeroed, the outboxes emptied and the logs truncated. The shards' edge
// deltas are the caller's to clear.
func (x *Exchange) discard() {
	e := x.e
	for _, s := range e.tallies {
		clear(s.cur)
	}
	if e.leanStats {
		clear(x.sent)
		clear(x.received)
	}
	for i := range x.outs {
		x.outs[i].empty()
	}
	for i := range x.logs {
		x.logs[i].reset()
	}
	e.inRound = false
}

// accountRound is the serial remainder of an executed round: it merges the
// shards' edge deltas, resolves them with one subtree-sum sweep and fills
// the round's reserved stats slot. It reads nothing of the exchange, which
// may be planning the next round by now. At most one runs at a time, and
// execute waits for it before its first walk, so the shard accumulators and
// the lean-stats arrays are used without synchronization.
func (e *Engine) accountRound(slot int, t0 float64, sent, received []int64, async bool) {
	if async {
		defer e.pending.Done()
	}

	// In lean mode the sweep adds straight into the cumulative totals;
	// otherwise into a fresh array the round's stats retain.
	traffic := e.totEdge
	if !e.leanStats {
		traffic = make([]int64, e.t.NumEdges())
	}
	rd := &e.rounds[slot]
	rd.Cost, rd.BottleneckEdge = e.mergedDeltas().FlushInto(traffic)
	e.retainStats(rd, traffic, sent, received)
	e.recordRound(slot, t0)
}

// mergedDeltas folds every shard's edge deltas into the first shard's
// accumulator and returns it, the others reset.
func (e *Engine) mergedDeltas() *topology.PathAccumulator {
	for _, s := range e.tallies[1:] {
		e.tallies[0].acc.MergeFrom(s.acc)
	}
	return e.tallies[0].acc
}
