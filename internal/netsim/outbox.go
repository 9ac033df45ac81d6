package netsim

import (
	"slices"

	"topompc/internal/topology"
)

// op is one queued transfer: a unicast to `to`, or a multicast to
// dsts[dlo:dhi] of its log when to is NoNode. Receivers are queued as node
// ids; the tally walk replaces each by its compute index.
type op struct {
	keys     []uint64
	to       topology.NodeID
	dlo, dhi int32
	tag      Tag
}

// opLog holds what one shard of senders queued for a round, in the order
// it was queued: the ops, and the multicast destination lists packed into
// one pool (copied from the caller's).
type opLog struct {
	ops  []op
	dsts []topology.NodeID
}

// grow extends the log by n zeroed ops.
func (l *opLog) grow(n int) {
	need := len(l.ops) + n
	if need > cap(l.ops) {
		// Doubling: append grows a large slice by a quarter, which copies a
		// log that fills within one round five times over.
		l.ops = slices.Grow(l.ops, max(n, len(l.ops), 1024))
	}
	l.ops = l.ops[:need] // zero since the last reset
}

// Outbox collects the sends one compute node plans for an exchange round.
// It is not safe for concurrent use; each node gets its own.
//
// A node's ops are the range ops[lo:hi] of its shard's log, with room to
// grow up to end. Plan visits the senders of a shard in turn, so a Send
// extends the log's tail by one op and each of the round's walks reads the
// log front to back. A sender that queues again after another one of its
// shard has (Out in any order, a second Plan) first moves its range to the
// tail and reserves as much room again, so however senders interleave an op
// moves O(1) times on average: its ops stay contiguous and in queueing
// order, which is all the walks rely on. The logs are owned by the engine
// and truncated after every round, so steady-state planning writes into
// buffers already grown to the protocol's working set and performs no heap
// allocation.
type Outbox struct {
	log         *opLog
	lo, hi, end int32
}

// next extends the node's range by one op and returns it, zeroed, to be
// filled in place.
func (o *Outbox) next() *op {
	if o.hi == o.end {
		l := o.log
		if int(o.end) != len(l.ops) {
			n := o.hi - o.lo
			lo := int32(len(l.ops))
			l.ops = append(l.ops, l.ops[o.lo:o.hi]...)
			o.lo, o.hi = lo, lo+n
			l.grow(int(n))
		}
		l.grow(1)
		o.end = int32(len(l.ops))
	}
	o.hi++
	return &o.log.ops[o.hi-1]
}

// empty forgets the node's range; the log is truncated by its shard.
func (o *Outbox) empty() { o.lo, o.hi, o.end = 0, 0, 0 }

// Send queues a unicast: keys travel along the unique tree path, every link
// charged once. A self-send is free and is still delivered (the node keeps
// its own data without touching the network). keys is retained until the
// round's deliveries have been consumed; callers must not mutate it before
// the next round completes.
func (o *Outbox) Send(to topology.NodeID, tag Tag, keys []uint64) {
	p := o.next()
	p.keys, p.to, p.tag = keys, to, tag
}

// Multicast queues a multicast to every node in dsts, routed along the
// Steiner tree of {sender} ∪ dsts so that every link is charged once
// regardless of the number of destinations. This matches the paper's
// accounting for instructions like "send a to all nodes in V_β ∪ {h(a)}":
// a router replicates the element toward multiple links. A destination
// named more than once receives a single delivery. dsts is copied into the
// log's destination pool, so callers may reuse the slice immediately; keys
// follows the Send retention rule.
func (o *Outbox) Multicast(dsts []topology.NodeID, tag Tag, keys []uint64) {
	l := o.log
	lo := int32(len(l.dsts))
	l.dsts = append(l.dsts, dsts...)
	p := o.next()
	p.keys, p.to, p.tag = keys, topology.NoNode, tag
	p.dlo, p.dhi = lo, int32(len(l.dsts))
}

// reset truncates the log for reuse, dropping payload references so the
// engine does not pin caller slices beyond the round that delivered them.
// The outboxes over it are emptied by whoever walks them.
func (l *opLog) reset() {
	clear(l.ops)
	l.ops = l.ops[:0]
	l.dsts = l.dsts[:0]
}
