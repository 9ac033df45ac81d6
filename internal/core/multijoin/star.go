package multijoin

import (
	"fmt"

	"topompc/internal/core/place"
	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// MaxStarRelations bounds k for the star shape (relation index rides in
// the message tag).
const MaxStarRelations = 200

// Star computes the k-way star join R_1(a,b_1) ⋈ … ⋈ R_k(a,b_k) on the
// shared attribute a. The HyperCube share vector for a star query
// degenerates to (p, 1, …, 1) — a hash partition of a — so the
// topology-aware variant is weighted hashing: join values are assigned to
// compute nodes with probability proportional to their bandwidth
// Capacities, keeping shuffle volume over each link proportional to its
// bandwidth. One communication round.
func Star(t *topology.Tree, rels []Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return star(t, rels, seed, true, opts)
}

// StarFlat is the topology-oblivious baseline: uniform hashing of the join
// attribute over all compute nodes, as in the plain MPC model.
func StarFlat(t *topology.Tree, rels []Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return star(t, rels, seed, false, opts)
}

func star(tr *topology.Tree, rels []Placement, seed uint64, aware bool, opts []netsim.Option) (*Result, error) {
	k := len(rels)
	if k < 2 {
		return nil, fmt.Errorf("multijoin: star join needs at least 2 relations, got %d", k)
	}
	if k > MaxStarRelations {
		return nil, fmt.Errorf("multijoin: star join supports at most %d relations, got %d", MaxStarRelations, k)
	}
	for j, rel := range rels {
		if err := checkPlacement(tr, fmt.Sprintf("R%d", j+1), rel); err != nil {
			return nil, err
		}
	}
	p := tr.NumCompute()
	nodes := tr.ComputeNodes()

	weights := place.Uniform(p)
	if aware {
		weights = place.Capacities(tr)
	}
	router, err := place.NewFlatRouter(tr, weights, seed, 0x57A2)
	if err != nil {
		return nil, err
	}
	h := router.Chooser(0)

	e := netsim.NewEngine(tr, opts...)
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := tr.ComputeIndex(v)
		for j, rel := range rels {
			// One unicast per target, targets in first-seen order
			// (deterministic for a fixed fragment order).
			target := make([]int32, len(rel[i]))
			for k, tp := range rel[i] {
				target[k] = int32(h.Choose(tp.A))
			}
			place.Scatter(out, netsim.Tag(j), words(rel[i]), 2, target, p, place.Targets{To: nodes, FirstSeen: true})
		}
	})
	x.Execute()

	res := &Result{
		PerNode: make([]int64, p),
		Sample:  make([][]Triple, p),
		Shares:  []int{p},
	}
	scratch := make([]starScratch, e.Pool().Workers())
	// The checksum is the shards' shares added in shard order; wrapping
	// addition, so the same total at every worker count.
	res.Checksum = uint64(e.Pool().Sum("multijoin local", p, func(shard, lo, hi int) int64 {
		var sum uint64
		for i := lo; i < hi; i++ {
			rows, share := scratch[shard].join(e.Inbox(nodes[i]), k)
			res.PerNode[i] = rows
			sum += share
		}
		return int64(sum)
	}))
	res.Report = e.Report()
	return res, nil
}

// starScratch is one pool shard's working lanes for the per-home star join.
type starScratch struct {
	raw, tmp []uint64
	values   [][]uint64 // per relation: the received join values, ascending
	at       []int      // per relation: the walk's cursor
}

// join counts the output rows of one home and their share of the checksum.
// All tuples of a join value land on one node, so local per-value counts
// are the global ones: every relation's received join values are sorted and
// one walk over the k lists multiplies the run lengths of each value.
func (sc *starScratch) join(ib netsim.Inbox, k int) (rows int64, sum uint64) {
	if sc.values == nil {
		sc.values, sc.at = make([][]uint64, k), make([]int, k)
	}
	for j := range sc.values {
		sc.raw = ib.AppendKeys(sc.raw[:0], netsim.Tag(j))
		vals := sc.values[j][:0]
		for w := 0; w < len(sc.raw); w += 2 {
			vals = append(vals, sc.raw[w])
		}
		sc.values[j], sc.tmp = par.SerialSort(vals, sc.tmp)
		sc.at[j] = 0
	}
	for first := sc.values[0]; sc.at[0] < len(first); {
		a := first[sc.at[0]]
		n := int64(1)
		for j, vals := range sc.values {
			at := sc.at[j]
			for at < len(vals) && vals[at] < a {
				at++
			}
			run := at
			for at < len(vals) && vals[at] == a {
				at++
			}
			sc.at[j] = at
			if n *= int64(at - run); n == 0 {
				break // a is missing from relation j; the cursors past j catch up later
			}
		}
		rows += n
		sum += hashing.Mix64(a) * uint64(n)
	}
	return rows, sum
}
