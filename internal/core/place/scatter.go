package place

import (
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// Targets is where a keyed scatter sends its buckets: bucket b as a unicast
// to To[b], or, when To is nil, as a multicast to Vector(b, words), words
// being the bucket's laid-out rows. Buckets go out in bucket order, or with
// FirstSeen in the order the fragment first meets them.
type Targets struct {
	To        []topology.NodeID
	Vector    func(b int, words []uint64) []topology.NodeID
	FirstSeen bool
}

// Scatter is the one layout-and-send step of every hash or splitter
// partition. words is one sender's fragment of width-word rows (width 1 or
// 2), key first, and row j goes to bucket[j] < n. The rows are laid out by
// bucket in one payload buffer with par.Layout, in fragment order inside a
// bucket, and every non-empty bucket leaves as one message under tag.
// bucket is overwritten.
func Scatter(out *netsim.Outbox, tag netsim.Tag, words []uint64, width int, bucket []int32, n int, to Targets) {
	var ids []int32 // with FirstSeen: the bucket of each group
	if to.FirstSeen {
		ids = par.FirstSeen(bucket, n)
		n = len(ids)
	}
	pos, off := par.Layout(bucket, n)
	buf := make([]uint64, len(words))
	if width == 1 {
		for j, at := range pos {
			buf[at] = words[j]
		}
	} else {
		for j, at := range pos {
			buf[2*at], buf[2*at+1] = words[2*j], words[2*j+1]
		}
	}
	for g := 0; g < n; g++ {
		if off[g] == off[g+1] {
			continue
		}
		b, rows := g, buf[width*int(off[g]):width*int(off[g+1])]
		if ids != nil {
			b = int(ids[g])
		}
		if to.To != nil {
			out.Send(to.To[b], tag, rows)
		} else {
			out.Multicast(to.Vector(b, rows), tag, rows)
		}
	}
}

// scatterFunc is Scatter's signature: a keyed scatter that sends, or one
// that only prices.
type scatterFunc func(out *netsim.Outbox, tag netsim.Tag, words []uint64, width int, bucket []int32, n int, to Targets)

// priceScatter queues the messages Scatter would queue — the same receivers,
// order and lengths — without laying the rows out: a bucket of k rows
// carries the first k rows of words, and Vector sees only the bucket's
// first row. Exchange.Price reads receivers and lengths alone, so it prices
// this plan exactly as it would Scatter's. Buckets go out in bucket order:
// Round, its one caller, numbers them in the order it wants them sent.
func priceScatter(out *netsim.Outbox, tag netsim.Tag, words []uint64, width int, bucket []int32, n int, to Targets) {
	count, first := make([]int32, n), make([]int32, n)
	for j, b := range bucket {
		if count[b] == 0 {
			first[b] = int32(j)
		}
		count[b]++
	}
	for b, k := range count {
		if k == 0 {
			continue
		}
		rows := words[:width*int(k)]
		if to.To != nil {
			out.Send(to.To[b], tag, rows)
		} else {
			j := width * int(first[b])
			out.Multicast(to.Vector(b, words[j:j+width]), tag, rows)
		}
	}
}
