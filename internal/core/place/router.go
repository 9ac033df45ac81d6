package place

import (
	"fmt"
	"slices"

	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// BlockRouter is the routing half of Algorithm 2 over a partition of the
// compute nodes into blocks: block i has a shared hash h_i that sends a key
// to one of its members with probability proportional to the members'
// weights. A row of the replicated side goes to h_i(key) in every block, a
// row of the other side to h_i(key) in its holder's own block only.
type BlockRouter struct {
	// Blocks is the partition routed over.
	Blocks   [][]topology.NodeID
	t        *topology.Tree
	blockOf  []int32                    // compute index -> block
	choosers []*hashing.WeightedChooser // per block, over its members
}

// NewBlockRouter builds the router of blocks, a partition of t's compute
// nodes. weights is indexed by compute index; a block whose weights all
// vanish hashes uniformly. Block b's hash is seeded Mix64(seed + b + salt),
// and the salt keeps the hashes of different protocol families apart.
func NewBlockRouter(t *topology.Tree, blocks [][]topology.NodeID, weights []float64, seed, salt uint64) (*BlockRouter, error) {
	r := &BlockRouter{
		Blocks:   blocks,
		t:        t,
		blockOf:  make([]int32, t.NumCompute()),
		choosers: make([]*hashing.WeightedChooser, len(blocks)),
	}
	for b, members := range blocks {
		w := make([]float64, len(members))
		for j, v := range members {
			ci := t.ComputeIndex(v)
			r.blockOf[ci] = int32(b)
			w[j] = weights[ci]
		}
		var err error
		r.choosers[b], err = hashing.NewWeightedChooser(hashing.Mix64(seed+uint64(b)+salt), FallbackUniform(w))
		if err != nil {
			return nil, fmt.Errorf("place: block %d: %w", b, err)
		}
	}
	return r, nil
}

// NewFlatRouter is the router of one block holding every compute node: the
// single weighted hash of a flat protocol, seeded Mix64(seed + salt).
func NewFlatRouter(t *topology.Tree, weights []float64, seed, salt uint64) (*BlockRouter, error) {
	return NewBlockRouter(t, [][]topology.NodeID{slices.Clone(t.ComputeNodes())}, weights, seed, salt)
}

// BlockOf reports the block holding the node at compute index ci.
func (r *BlockRouter) BlockOf(ci int) int { return int(r.blockOf[ci]) }

// Chooser reports block b's hash: it maps a key to an index into Blocks[b].
func (r *BlockRouter) Chooser(b int) *hashing.WeightedChooser { return r.choosers[b] }

// Destinations fills dsts, one slot per block, with the member each block's
// hash picks for key: the key's destination vector.
func (r *BlockRouter) Destinations(dsts []topology.NodeID, key uint64) {
	for b, members := range r.Blocks {
		dsts[b] = members[r.choosers[b].Choose(key)]
	}
}

// Hash queues words, rows of width words with the key first, hashed within
// the block of compute index i: row j to member h_b(key), one unicast per
// member in member order. In a priced round it lays no row out (Scatter).
func (r *BlockRouter) Hash(out *netsim.Outbox, tag netsim.Tag, i int, words []uint64, width int) {
	b := r.BlockOf(i)
	h := r.choosers[b]
	bucket := make([]int32, len(words)/width)
	for j := range bucket {
		bucket[j] = int32(h.Choose(words[j*width]))
	}
	Scatter(out, tag, words, width, bucket, len(r.Blocks[b]), Targets{To: r.Blocks[b]})
}

// Round plans Algorithm 2's one round on x over rows of width words, key
// first. The node at compute index i sends the two sides sides(i) reports:
// the R side under TagR, replicated when replicate — row j to h_b(key) in
// every block b, one multicast per destination vector in order of first
// appearance — and hashed within i's block otherwise; the S side under
// TagS, hashed within i's block. On a priced exchange it lays no row out
// (Scatter), so the price is the round's cost from bucket counts alone.
func (r *BlockRouter) Round(x *netsim.Exchange, width int, replicate bool, sides func(i int) (rs, ss []uint64)) {
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := r.t.ComputeIndex(v)
		rs, ss := sides(i)
		if replicate {
			keys := rs
			if width > 1 {
				keys = make([]uint64, len(rs)/width)
				for j := range keys {
					keys[j] = rs[j*width]
				}
			}
			group, n := r.DestinationGroups(keys)
			// Every key of a group has the group's destination vector.
			key := make([]uint64, n)
			for j, g := range group {
				key[g] = keys[j]
			}
			dsts := make([]topology.NodeID, len(r.Blocks))
			Scatter(out, netsim.TagR, rs, width, group, n, Targets{Vector: func(g int) []topology.NodeID {
				r.Destinations(dsts, key[g])
				return dsts
			}})
		} else {
			r.Hash(out, netsim.TagR, i, rs, width)
		}
		r.Hash(out, netsim.TagS, i, ss, width)
	})
}

// DestinationGroups numbers keys by destination vector in order of first
// appearance, and reports how many distinct vectors there are. A vector is
// a mixed-radix number over the block sizes; whenever that number space
// outgrows a table linear in the fragment it is renumbered densely by
// sorting, so the work stays O(blocks · keys) however the sizes multiply.
func (r *BlockRouter) DestinationGroups(keys []uint64) (group []int32, n int) {
	limit := uint64(4*len(keys) + 1024)
	ids := make([]uint64, len(keys))
	space := uint64(1) // ids are below it
	for b, members := range r.Blocks {
		if space*uint64(len(members)) > limit {
			space = compact(ids)
		}
		h := r.choosers[b]
		for j, k := range keys {
			ids[j] = ids[j]*uint64(len(members)) + uint64(h.Choose(k))
		}
		space *= uint64(len(members))
	}
	if space > limit {
		space = compact(ids)
	}
	group = make([]int32, len(keys))
	for j, id := range ids {
		group[j] = int32(id)
	}
	return group, len(par.FirstSeen(group, int(space)))
}

// compact renumbers ids densely (equal ids stay equal, distinct ones stay
// distinct) and reports a bound above the new ids.
func compact(ids []uint64) uint64 {
	pos := make([]uint64, len(ids))
	for j := range pos {
		pos[j] = uint64(j)
	}
	sorted, pos, _, _ := par.SortPairs(slices.Clone(ids), pos, nil, nil)
	var next uint64
	for j, id := range sorted {
		if j > 0 && id != sorted[j-1] {
			next++
		}
		ids[pos[j]] = next
	}
	return next + 1
}
