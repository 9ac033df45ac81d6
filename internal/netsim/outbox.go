package netsim

import (
	"topompc/internal/topology"
)

// op is one queued transfer: a unicast to `to`, or a multicast to
// dsts[dlo:dhi] of its outbox when to is NoNode.
type op struct {
	keys     []uint64
	to       topology.NodeID
	dlo, dhi int32
	tag      Tag
}

// Outbox collects the sends one compute node plans for an exchange round.
// It is not safe for concurrent use; each node gets its own.
//
// The queued ops are one array, with multicast destination lists packed
// into a shared pool: a Send is one append, and each of the round's walks
// reads one array per outbox. Exchange outboxes are owned by the engine and
// recycled across rounds by truncation, so steady-state planning appends
// into buffers that are already grown to the protocol's working set and
// performs no heap allocation.
type Outbox struct {
	ops  []op
	dsts []topology.NodeID // packed multicast destinations (copied)
}

// Send queues a unicast: keys travel along the unique tree path, every link
// charged once. A self-send is free and is still delivered (the node keeps
// its own data without touching the network). keys is retained until the
// round's deliveries have been consumed; callers must not mutate it before
// the next round completes.
func (o *Outbox) Send(to topology.NodeID, tag Tag, keys []uint64) {
	o.ops = append(o.ops, op{keys: keys, to: to, tag: tag})
}

// Multicast queues a multicast to every node in dsts, routed along the
// Steiner tree of {sender} ∪ dsts so that every link is charged once
// regardless of the number of destinations. This matches the paper's
// accounting for instructions like "send a to all nodes in V_β ∪ {h(a)}":
// a router replicates the element toward multiple links. A destination
// named more than once receives a single delivery. dsts is copied into the
// outbox's destination pool, so callers may reuse the slice immediately;
// keys follows the Send retention rule.
func (o *Outbox) Multicast(dsts []topology.NodeID, tag Tag, keys []uint64) {
	lo := int32(len(o.dsts))
	o.dsts = append(o.dsts, dsts...)
	o.ops = append(o.ops, op{keys: keys, to: topology.NoNode, dlo: lo, dhi: int32(len(o.dsts)), tag: tag})
}

// reset truncates the outbox for reuse, dropping payload references so the
// arena does not pin caller slices beyond the round that delivered them.
func (o *Outbox) reset() {
	clear(o.ops)
	o.ops = o.ops[:0]
	o.dsts = o.dsts[:0]
}
