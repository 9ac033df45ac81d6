package netsim

import (
	"fmt"

	"topompc/internal/topology"
)

// Exchange is a planned communication round: protocols declare every
// transfer of the round up front — batched unicasts and multicasts per
// sender — and Execute then routes, accounts, and delivers the whole plan
// in one pass.
//
// Unlike the per-message Round reference, which walks the tree path of
// every Send (O(depth) each), Execute aggregates per-edge traffic with
// tree-difference counting over the LCA index: each unicast contributes
// O(1) node deltas, each multicast charges its Steiner tree through the
// terminal virtual tree, and a single subtree-sum sweep produces the edge
// counts — O(V + M) for M transfers. Planning and accounting are sharded
// across the engine's par pools by sender; determinism is preserved because
// per-edge sums are order-independent and deliveries are merged in
// compute-node order, then op order.
//
// Exchange values are owned by the engine: Engine.Exchange hands out one
// of two alternating buffers whose outboxes persist across rounds, so a
// steady-state plan/execute cycle allocates nothing. The double buffer is
// what permits pipelining — ExecuteAsync finishes accounting of round r in
// the background while the protocol plans round r+1 into the other buffer.
//
// An Exchange and a Round cannot be open on the same engine at once; the
// exchange occupies the engine from Exchange() until Execute().
type Exchange struct {
	e    *Engine
	outs []Outbox // one per compute node, in ComputeNodes order
	t0   float64  // trace timestamp of Exchange() (tracing only)
	done bool

	// Shard bodies handed to par.Blocks, built once per buffer: a closure
	// made per call would escape and break the zero-alloc steady state.
	planFn     func(v topology.NodeID, out *Outbox) // the Plan in flight
	planShard  func(shard, lo, hi int)
	tallyShard func(shard, lo, hi int)
}

// Exchange opens a planned round. Transfers read the inboxes of the
// previous round; deliveries become visible when Execute is called.
//
// The returned exchange is an engine-owned buffer recycled across rounds;
// it stays valid only until its Execute (or ExecuteAsync) completes the
// round.
func (e *Engine) Exchange() *Exchange {
	if e.inRound {
		panic("netsim: Exchange while a round is open")
	}
	e.inRound = true
	x := &e.exbuf[e.exturn]
	e.exturn ^= 1
	if x.e == nil {
		x.e = e
		x.outs = make([]Outbox, e.t.NumCompute())
		nodes := e.t.ComputeNodes()
		x.planShard = func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				x.planFn(nodes[i], &x.outs[i])
			}
		}
		x.tallyShard = func(shard, lo, hi int) {
			x.tallyOps(e.tallies[shard], lo, hi)
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
	i := x.e.cindex[v]
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

// shardTally is one shard's accounting state: a path accumulator for edge
// traffic plus per-node sent/received counters and a private stamp set for
// multicast destination dedup.
type shardTally struct {
	acc      *topology.PathAccumulator
	sent     []int64
	received []int64
	stamp    []int32
	cur      int32
	terms    []topology.NodeID
}

// tallyOps accounts every op of the outboxes in [lo, hi) into the shard.
// Receivers were validated before accounting started.
func (x *Exchange) tallyOps(s *shardTally, lo, hi int) {
	nodes := x.e.t.ComputeNodes()
	for i := lo; i < hi; i++ {
		ob := &x.outs[i]
		from := nodes[i]
		for j, to := range ob.to {
			n := int64(len(ob.keys[j]))
			if to != topology.NoNode {
				if to != from {
					s.acc.AddPath(from, to, n)
					s.sent[from] += n
					s.received[to] += n
				}
				continue
			}
			// Multicast: charge the Steiner tree of {from} ∪ dsts once and
			// count one delivery per distinct destination.
			s.cur++
			if s.cur == 0 {
				for k := range s.stamp {
					s.stamp[k] = -1
				}
				s.cur = 1
			}
			s.terms = append(s.terms[:0], from)
			external := false
			for _, d := range ob.pool[ob.dlo[j]:ob.dhi[j]] {
				if s.stamp[d] == s.cur {
					continue
				}
				s.stamp[d] = s.cur
				if d != from {
					external = true
					s.received[d] += n
				}
				s.terms = append(s.terms, d)
			}
			if external {
				// The sender emits one copy into the network; routers
				// replicate along the Steiner tree.
				s.sent[from] += n
				s.acc.AddSteiner(s.terms, n)
			}
		}
	}
}

// shardSet returns the engine's cached tally states, one per shard the
// accounting pool forks a round into, creating them on first use.
// Accumulators and stamp sets self-reset between rounds; sent/received are
// zeroed after each merge.
func (e *Engine) shardSet() []*shardTally {
	n := min(e.acct.Workers(), e.t.NumCompute())
	for len(e.tallies) < max(n, 1) {
		e.tallies = append(e.tallies, &shardTally{
			acc:      topology.NewPathAccumulator(e.t),
			sent:     make([]int64, e.t.NumNodes()),
			received: make([]int64, e.t.NumNodes()),
			stamp:    make([]int32, e.t.NumNodes()),
		})
	}
	return e.tallies
}

// Execute routes all declared transfers: per-edge traffic is aggregated in
// O(V + M) with sharded accumulators, deliveries are merged into the
// inboxes in compute-node order, and the round is committed. The exchange
// cannot be reused afterwards.
func (x *Exchange) Execute() RoundStats {
	slot := x.execute()
	x.e.pending.Wait()
	return x.e.rounds[slot]
}

// ExecuteAsync is Execute with the cost accounting deferred to a
// background worker: deliveries are visible (and the next round may be
// opened and planned) as soon as it returns, while edge traffic, node
// counters, and the round's cost statistics are finalized concurrently.
// Report, NumRounds, and the next Execute synchronize on the pending
// accounting, so observable statistics are identical to Execute. With a
// single worker the accounting runs inline and ExecuteAsync is equivalent
// to Execute.
func (x *Exchange) ExecuteAsync() {
	x.execute()
}

// execute validates and delivers the plan synchronously, reserves the
// round's stats slot, and hands the outboxes to accounting. It returns the
// reserved slot index.
func (x *Exchange) execute() int {
	if x.done {
		panic("netsim: Execute called twice")
	}
	x.done = true
	e := x.e
	nodes := e.t.ComputeNodes()

	// Validate receivers before mutating any engine state so misuse panics
	// on the caller's goroutine with the engine untouched. The same walk
	// counts what each receiver is about to get, so every receiving inbox
	// is sized once and delivery never regrows it; a multicast naming a
	// destination twice counts it twice, which only over-reserves.
	for i := range x.outs {
		ob := &x.outs[i]
		for j, to := range ob.to {
			n := int64(len(ob.keys[j]))
			if to != topology.NoNode {
				e.expect(to, n)
				continue
			}
			for _, d := range ob.pool[ob.dlo[j]:ob.dhi[j]] {
				e.expect(d, n)
			}
		}
	}
	for _, ci := range e.rsvList {
		e.inboxNext[nodes[ci]].reserve(int(e.rsvMsgs[ci]), e.rsvKeys[ci])
	}
	e.clearExpected()

	// Deliveries, merged in compute-node order (then op order) so inbox
	// ordering is deterministic and identical to the per-message Round API.
	messages := 0
	var elements int64
	for i, v := range nodes {
		ob := &x.outs[i]
		for j, to := range ob.to {
			if to != topology.NoNode {
				messages++
				elements += int64(len(ob.keys[j]))
				e.inboxNext[to].push(v, ob.tag[j], ob.keys[j])
				continue
			}
			stamp := e.nextStamp()
			for _, d := range ob.pool[ob.dlo[j]:ob.dhi[j]] {
				if e.dupStamp[d] == stamp {
					continue
				}
				e.dupStamp[d] = stamp
				messages++
				elements += int64(len(ob.keys[j]))
				e.inboxNext[d].push(v, ob.tag[j], ob.keys[j])
			}
		}
	}

	// Wait for the previous round's accounting before touching the rounds
	// slice, then reserve this round's slot and publish the deliveries.
	e.pending.Wait()
	e.inRound = false
	slot := len(e.rounds)
	e.rounds = append(e.rounds, RoundStats{Index: slot, Messages: messages, Elements: elements})
	e.swapInboxes()

	if e.acct.Workers() > 1 {
		e.pending.Add(1)
		go accountRound(x, slot, true)
	} else {
		accountRound(x, slot, false)
	}
	return slot
}

// accountRound tallies the executed outboxes into per-edge and per-node
// counters, fills the round's reserved stats slot, and resets the outboxes
// for reuse. At most one accounting runs at a time (execute waits on
// pending before spawning the next), so the engine-cached shard tallies
// and lean-stats arena are used without synchronization.
func accountRound(x *Exchange, slot int, async bool) {
	e := x.e
	if async {
		defer e.pending.Done()
	}

	shards := e.shardSet()
	e.acct.Blocks("netsim tally", len(x.outs), x.tallyShard)

	// Merge shards, resolving edge traffic with one subtree-sum sweep. In
	// lean mode the merge targets the engine's reusable arena (zeroed again
	// by finishStats after folding into the totals); otherwise fresh arrays
	// are retained by the round's stats.
	var traffic, sent, received []int64
	if e.leanStats {
		e.ensureArena()
		traffic, sent, received = e.arTraffic, e.arSent, e.arReceived
	} else {
		traffic = make([]int64, e.t.NumEdges())
		sent = make([]int64, e.t.NumNodes())
		received = make([]int64, e.t.NumNodes())
	}
	for w, s := range shards {
		if w > 0 {
			shards[0].acc.MergeFrom(s.acc)
		}
		for v := range s.sent {
			if s.sent[v] != 0 {
				sent[v] += s.sent[v]
				s.sent[v] = 0
			}
			if s.received[v] != 0 {
				received[v] += s.received[v]
				s.received[v] = 0
			}
		}
	}
	shards[0].acc.FlushInto(traffic)

	e.finishStats(slot, traffic, sent, received)
	e.recordRound(slot, x.t0)

	for i := range x.outs {
		x.outs[i].reset()
	}
}
