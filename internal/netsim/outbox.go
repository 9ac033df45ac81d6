package netsim

import (
	"topompc/internal/topology"
)

// Outbox collects the sends one compute node plans for an exchange round.
// It is not safe for concurrent use; each node gets its own.
//
// The layout is struct-of-arrays: one entry per queued op across five
// parallel slices, with multicast destination lists packed into a shared
// pool. Exchange outboxes are owned by the engine and recycled across
// rounds by truncation, so steady-state planning appends into buffers that
// are already grown to the protocol's working set and performs no heap
// allocation.
type Outbox struct {
	to   []topology.NodeID // per op; NoNode marks a multicast
	tag  []Tag
	keys [][]uint64
	dlo  []int32 // multicast destination range [dlo, dhi) in pool
	dhi  []int32
	pool []topology.NodeID // packed multicast destinations (copied)
}

// Send queues a unicast (see Round.Send). keys is retained until the
// round's deliveries have been consumed; callers must not mutate it before
// the next round completes.
func (o *Outbox) Send(to topology.NodeID, tag Tag, keys []uint64) {
	o.to = append(o.to, to)
	o.tag = append(o.tag, tag)
	o.keys = append(o.keys, keys)
	p := int32(len(o.pool))
	o.dlo = append(o.dlo, p)
	o.dhi = append(o.dhi, p)
}

// Multicast queues a multicast (see Round.Multicast). dsts is copied into
// the outbox's destination pool, so callers may reuse the slice
// immediately; keys follows the Send retention rule.
func (o *Outbox) Multicast(dsts []topology.NodeID, tag Tag, keys []uint64) {
	o.to = append(o.to, topology.NoNode)
	o.tag = append(o.tag, tag)
	o.keys = append(o.keys, keys)
	lo := int32(len(o.pool))
	o.pool = append(o.pool, dsts...)
	o.dlo = append(o.dlo, lo)
	o.dhi = append(o.dhi, int32(len(o.pool)))
}

// reset truncates the outbox for reuse, dropping payload references so the
// arena does not pin caller slices beyond the round that delivered them.
func (o *Outbox) reset() {
	for j := range o.keys {
		o.keys[j] = nil
	}
	o.to = o.to[:0]
	o.tag = o.tag[:0]
	o.keys = o.keys[:0]
	o.dlo = o.dlo[:0]
	o.dhi = o.dhi[:0]
	o.pool = o.pool[:0]
}
