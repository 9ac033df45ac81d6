// Package join implements a binary equi-join on symmetric trees — the
// "simple join between two relations" the paper's conclusion names as the
// next step beyond the three primitives.
//
// Task: R(k, x) ⋈ S(k, y) — emit every (x, y) with matching join key k,
// each pair at least once at some compute node. Unlike set intersection the
// relations are bags: a key may appear many times on either side, so a key
// k contributes |R_k|·|S_k| output pairs and co-locating its full R-group
// with each S-tuple is required. A tuple costs 2 elements on the wire (key +
// payload).
//
// The join is one round of Algorithm 2, place.BlockRouter.Round, over 2-word
// rows, so a sender's rows leave through place.Scatter, the one keyed
// scatter. Tree plans which router that round takes. It prices three on the
// instance (place.BlockRouter.PriceRound, then netsim.Exchange.Price) and
// runs the cheapest on the same engine, the first among equals:
//
//   - blocks: join keys routed exactly like TreeIntersect routes set
//     elements (balanced partition, weighted in-block hashing, the smaller
//     side replicated across blocks), whole key-groups travelling instead of
//     single elements. Its guarantee is worst-case: where every block spans
//     weak links, the replication costs more than it saves.
//   - capacity-hash: both sides hashed over every compute node in proportion
//     to its bandwidth capacity (place.Capacities), as multijoin.Star hashes.
//   - uniform-hash: UniformHash's uniform hash, so Tree never costs more than
//     the topology-oblivious baseline.
//
// Pricing reads bucket counts only, so a losing router lays no row out.
// Local compute is sort-merge on the par kernels, forked by home: a home
// drains its inbox once, radix-sorts the two sides by key and merges them.
//
// No optimality theorem is claimed (output-optimal topology-aware joins are
// open; the root package reports the cost against Theorem 1 over the
// tuples' two words), and a single extremely heavy key can still overload
// its target node — handling that requires per-key output-space splitting,
// which is exactly the open problem. Experiment X2 exercises the package.
package join

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"topompc/internal/core/place"
	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// Tuple is one relation row: a join key and an opaque payload.
type Tuple struct {
	Key     uint64
	Payload uint64
}

// Placement is the initial tuples per compute node, in ComputeNodes order.
type Placement [][]Tuple

// Pair is one join output row.
type Pair struct {
	Key  uint64
	X, Y uint64
}

// Result of a join protocol.
type Result struct {
	// PerNode is the number of output pairs each node emits (pairs are
	// enumerated, not materialized, to keep |R⋈S| out of memory; Sample
	// holds a deterministic per-node sample for verification).
	PerNode []int64
	// Sample holds up to SampleLimit actual pairs per node.
	Sample [][]Pair
	// Report is the cost accounting.
	Report *netsim.Report
	// Blocks is the partition the round hashed within: the balanced
	// partition, or one block of every compute node for a flat hash (nil
	// from UniformHash and when nothing moves).
	Blocks [][]topology.NodeID
	// Strategy names the plan that ran: StrategyBlocks,
	// StrategyCapacityHash or StrategyUniformHash.
	Strategy string
}

// SampleLimit bounds the per-node pair sample kept for verification.
const SampleLimit = 64

// TotalPairs sums the per-node emitted pair counts.
func (r *Result) TotalPairs() int64 {
	var n int64
	for _, c := range r.PerNode {
		n += c
	}
	return n
}

// Ref is what Verify checks a result against: |R ⋈ S| and the relations the
// sampled pairs must come from.
type Ref struct {
	Size int64
	r, s Placement
}

// Reference computes |R ⋈ S| directly. It hashes where the protocols sort
// and merge, so the two share no join logic.
func Reference(r, s Placement) *Ref {
	rCount := make(map[uint64]int64)
	for _, frag := range r {
		for _, t := range frag {
			rCount[t.Key]++
		}
	}
	ref := &Ref{r: r, s: s}
	for _, frag := range s {
		for _, t := range frag {
			ref.Size += rCount[t.Key]
		}
	}
	return ref
}

// Verify checks output-size correctness and validates the sampled pairs
// against the input relations: every sampled (key, payload) of either side
// must be a tuple of that side. Only the sampled tuples are indexed, and
// each relation is scanned once.
func Verify(ref *Ref, res *Result) error {
	if got := res.TotalPairs(); got != ref.Size {
		return fmt.Errorf("join: %d pairs emitted, want %d", got, ref.Size)
	}
	for _, side := range []struct {
		name  string
		rel   Placement
		tuple func(p Pair) Tuple
	}{
		{"R", ref.r, func(p Pair) Tuple { return Tuple{Key: p.Key, Payload: p.X} }},
		{"S", ref.s, func(p Pair) Tuple { return Tuple{Key: p.Key, Payload: p.Y} }},
	} {
		seen := make(map[Tuple]bool) // sampled tuple -> found in the relation
		var maybe [1 << 10]uint64    // one hashed bit per sampled tuple: most of the scan stops here
		bit := func(t Tuple) (word *uint64, mask uint64) {
			h := hashing.Mix64(t.Key + hashing.Mix64(t.Payload))
			return &maybe[h>>54], 1 << (h & 63)
		}
		for _, sample := range res.Sample {
			for _, p := range sample {
				t := side.tuple(p)
				seen[t] = false
				word, mask := bit(t)
				*word |= mask
			}
		}
		for _, frag := range side.rel {
			for _, t := range frag {
				if word, mask := bit(t); *word&mask != 0 {
					if _, sampled := seen[t]; sampled {
						seen[t] = true
					}
				}
			}
		}
		for i, sample := range res.Sample {
			for _, p := range sample {
				if t := side.tuple(p); !seen[t] {
					return fmt.Errorf("join: node %d emitted pair with non-existent %s tuple (%d,%d)", i, side.name, t.Key, t.Payload)
				}
			}
		}
	}
	return nil
}

// words views a fragment as its wire rows without copying: a Tuple is the
// two words (key, payload), so the fragment is 2·len(frag) words.
func words(frag []Tuple) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(frag))), 2*len(frag))
}

// The strategies Tree prices, in the order ties go.
const (
	// StrategyBlocks is Algorithm 2's round over the balanced partition.
	StrategyBlocks = "blocks"
	// StrategyCapacityHash hashes both sides over every compute node with
	// probability proportional to place.Capacities.
	StrategyCapacityHash = "capacity-hash"
	// StrategyUniformHash hashes both sides uniformly over every compute
	// node, as UniformHash does.
	StrategyUniformHash = "uniform-hash"
)

// Tree joins R and S on an arbitrary symmetric tree: it prices three plans
// of the one round on the instance — Algorithm 2's block round described in
// the package comment, a capacity-weighted hash and UniformHash's uniform
// hash, the latter two flat — and runs the cheapest, the first among equals.
// Pricing lays no row out (place.BlockRouter.PriceRound). seed drives the
// shared hash functions; the uniform plan is UniformHash's, so Tree never
// costs more than it.
func Tree(t *topology.Tree, r, s Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return planned(t, r, s, seed, opts, StrategyBlocks, StrategyCapacityHash, StrategyUniformHash)
}

// candidate is one plan of Tree's round: a router, and whether it
// replicates the smaller side across its blocks.
type candidate struct {
	strategy  string
	router    *place.BlockRouter
	replicate bool
}

// planned builds the named plans of Tree's round, prices them on one engine
// and runs the cheapest there; a single plan runs unpriced.
func planned(t *topology.Tree, r, s Placement, seed uint64, opts []netsim.Option, strategies ...string) (*Result, error) {
	nodes, err := check(t, r, s)
	if err != nil {
		return nil, err
	}
	var sizeR, sizeS int64
	loads := make(topology.Loads, t.NumNodes())
	weights := make([]float64, len(nodes)) // N_v by compute index, for the in-block hashes
	for i, v := range nodes {
		sizeR += int64(len(r[i]))
		sizeS += int64(len(s[i]))
		loads[v] = int64(len(r[i]) + len(s[i]))
		weights[i] = float64(loads[v])
	}
	small, large, swapped := r, s, sizeS < sizeR
	if swapped {
		small, large, sizeR = s, r, sizeS
	}
	if sizeR == 0 {
		return &Result{
			PerNode:  make([]int64, len(nodes)),
			Sample:   make([][]Pair, len(nodes)),
			Report:   &netsim.Report{Tree: t},
			Strategy: strategies[0],
		}, nil
	}

	cands := make([]candidate, len(strategies))
	for i, name := range strategies {
		c := &cands[i]
		c.strategy = name
		switch name {
		case StrategyBlocks:
			var blocks [][]topology.NodeID
			if blocks, err = place.BalancedPartition(t, loads, sizeR); err == nil {
				c.router, err = place.NewBlockRouter(t, blocks, weights, seed, 1)
			}
			c.replicate = true
		case StrategyCapacityHash:
			c.router, err = place.NewFlatRouter(t, place.Capacities(t), seed, 0xCA9A)
		default:
			c.router, err = uniformRouter(t, seed)
		}
		if err != nil {
			return nil, err
		}
	}
	// TagR carries the smaller side; swapped restores the (R-payload,
	// S-payload) orientation of the sampled pairs. Sorting the S rows fixes
	// the enumeration order the sample is taken in.
	sides := func(i int) ([]uint64, []uint64) { return words(small[i]), words(large[i]) }
	e := netsim.NewEngine(t, opts...)
	best := &cands[0]
	if len(cands) > 1 {
		bestCost := math.Inf(1)
		for i := range cands {
			c := &cands[i]
			x := e.Exchange()
			c.router.PriceRound(x, 2, c.replicate, sides)
			if cost, _ := x.Price(); cost < bestCost {
				best, bestCost = c, cost
			}
		}
	}
	x := e.Exchange()
	best.router.Round(x, 2, best.replicate, sides)
	x.Execute()
	res := finish(e, nodes, true, swapped)
	res.Blocks, res.Strategy = best.router.Blocks, best.strategy
	return res, nil
}

// UniformHash is the topology-oblivious baseline: both relations are hashed
// by key uniformly over all compute nodes.
func UniformHash(t *topology.Tree, r, s Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	nodes, err := check(t, r, s)
	if err != nil {
		return nil, err
	}
	router, err := uniformRouter(t, seed)
	if err != nil {
		return nil, err
	}
	e := netsim.NewEngine(t, opts...)
	x := e.Exchange()
	router.Round(x, 2, false, func(i int) ([]uint64, []uint64) { return words(r[i]), words(s[i]) })
	x.Execute()
	res := finish(e, nodes, false, false)
	res.Strategy = StrategyUniformHash
	return res, nil
}

// uniformRouter is the one uniform hash of UniformHash and of Tree's
// uniform plan.
func uniformRouter(t *topology.Tree, seed uint64) (*place.BlockRouter, error) {
	return place.NewFlatRouter(t, place.Uniform(t.NumCompute()), seed, 0x10ad)
}

func check(t *topology.Tree, r, s Placement) ([]topology.NodeID, error) {
	nodes := t.ComputeNodes()
	if len(r) != len(nodes) || len(s) != len(nodes) {
		return nil, fmt.Errorf("join: placements cover %d/%d nodes, tree has %d compute nodes",
			len(r), len(s), len(nodes))
	}
	return nodes, nil
}

// homeScratch is one pool shard's working lanes for the per-home join.
type homeScratch struct {
	raw            []uint64 // drained payloads, (key, payload) interleaved
	rk, rv, sk, sv []uint64 // the two sides as key and payload lanes
	tk, tv         []uint64 // sort scratch
}

// rows drains the home's tag messages into a key lane and a payload lane,
// in arrival order.
func (sc *homeScratch) rows(ib netsim.Inbox, tag netsim.Tag, k, v []uint64) ([]uint64, []uint64) {
	sc.raw = ib.AppendKeys(sc.raw[:0], tag)
	n := len(sc.raw) / 2
	k, v = slices.Grow(k[:0], n)[:n], slices.Grow(v[:0], n)[:n]
	for j := range k {
		k[j], v[j] = sc.raw[2*j], sc.raw[2*j+1]
	}
	return k, v
}

// join counts the pairs of the TagR and TagS rows delivered to one home and
// samples the first SampleLimit of them: S rows in arrival order — by (key,
// payload) with sortS — each against the R rows of its key in arrival
// order. The R rows are sorted stably by key, so a key's rows are one run;
// sorted S rows walk the runs in one merge, unsorted ones search for them.
func (sc *homeScratch) join(ib netsim.Inbox, sortS, swapped bool) (pairs int64, sample []Pair) {
	rk, rv := sc.rows(ib, netsim.TagR, sc.rk, sc.rv)
	sk, sv := sc.rows(ib, netsim.TagS, sc.sk, sc.sv)
	tk, tv := sc.tk, sc.tv
	rk, rv, tk, tv = par.SortPairs(rk, rv, tk, tv)
	if sortS {
		// By key, then by payload inside each run of equal keys: the same
		// order as sorting by payload first, at half the passes when few
		// keys repeat.
		sk, sv, tk, tv = par.SortPairs(sk, sv, tk, tv)
		for lo := 0; lo < len(sk); {
			hi := lo + 1
			for hi < len(sk) && sk[hi] == sk[lo] {
				hi++
			}
			if hi-lo > 1 {
				slices.Sort(sv[lo:hi])
			}
			lo = hi
		}
	}
	sc.rk, sc.rv, sc.sk, sc.sv, sc.tk, sc.tv = rk, rv, sk, sv, tk, tv

	lo, hi := 0, 0 // the R run of the current S key
	for j, key := range sk {
		if j == 0 || key != sk[j-1] {
			if sortS {
				lo = hi
				for lo < len(rk) && rk[lo] < key {
					lo++
				}
			} else {
				lo, _ = slices.BinarySearch(rk, key)
			}
			hi = lo
			for hi < len(rk) && rk[hi] == key {
				hi++
			}
		}
		pairs += int64(hi - lo)
		for i := lo; i < hi && len(sample) < SampleLimit; i++ {
			p := Pair{Key: key, X: rv[i], Y: sv[j]}
			if swapped {
				p.X, p.Y = p.Y, p.X
			}
			sample = append(sample, p)
		}
	}
	return pairs, sample
}

// finish runs the per-home joins, forked by home on the engine's pool with
// one scratch per shard.
func finish(e *netsim.Engine, nodes []topology.NodeID, sortS, swapped bool) *Result {
	res := &Result{
		PerNode: make([]int64, len(nodes)),
		Sample:  make([][]Pair, len(nodes)),
	}
	scratch := make([]homeScratch, e.Pool().Workers())
	e.Pool().Blocks("join local", len(nodes), func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			res.PerNode[i], res.Sample[i] = scratch[shard].join(e.Inbox(nodes[i]), sortS, swapped)
		}
	})
	res.Report = e.Report()
	return res
}
