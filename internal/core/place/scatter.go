package place

import (
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// Targets is where a keyed scatter sends its buckets: bucket b as a unicast
// to To[b], or, when To is nil, as a multicast to Vector(b). The vector is
// a function of the bucket alone, so a priced scatter, which lays no row
// out, asks it as a running one does. Buckets go out in bucket order, or,
// in a round that runs, with FirstSeen in the order the fragment first
// meets them.
type Targets struct {
	To        []topology.NodeID
	Vector    func(b int) []topology.NodeID
	FirstSeen bool
}

// Scatter is the one keyed send of every hash or splitter partition, in a
// round that runs and in one that is only priced. words is one sender's
// fragment of width-word rows (width 1 or 2), key first, and row j goes to
// bucket[j] < n. Every non-empty bucket leaves as one message under tag.
// To run, the rows are laid out by bucket in one payload buffer with
// par.Layout, in fragment order inside a bucket; bucket is overwritten. To
// be priced (out.Priced), one counting pass sizes the buckets, and a bucket
// of k rows carries k rows of words as they lie, in bucket order: a price
// reads receivers and lengths only, so it is the same without a row laid
// out.
func Scatter(out *netsim.Outbox, tag netsim.Tag, words []uint64, width int, bucket []int32, n int, to Targets) {
	var ids []int32 // with FirstSeen: the bucket of each group
	var off []int32 // group g's rows are buf[width*off[g]:width*off[g+1]]
	buf := words
	if out.Priced() {
		off = make([]int32, n+1)
		for _, b := range bucket {
			off[b+1]++
		}
		for g := range n {
			off[g+1] += off[g]
		}
	} else {
		if to.FirstSeen {
			ids = par.FirstSeen(bucket, n)
			n = len(ids)
		}
		var pos []int32
		pos, off = par.Layout(bucket, n)
		buf = make([]uint64, len(words))
		if width == 1 {
			for j, at := range pos {
				buf[at] = words[j]
			}
		} else {
			for j, at := range pos {
				buf[2*at], buf[2*at+1] = words[2*j], words[2*j+1]
			}
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
			out.Multicast(to.Vector(b), tag, rows)
		}
	}
}
