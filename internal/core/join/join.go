// Package join implements a binary equi-join on symmetric trees — the
// "simple join between two relations" the paper's conclusion names as the
// next step beyond the three primitives.
//
// Task: R(k, x) ⋈ S(k, y) — emit every (x, y) with matching join key k,
// each pair at least once at some compute node. Unlike set intersection the
// relations are bags: a key may appear many times on either side, so a key
// k contributes |R_k|·|S_k| output pairs and co-locating its full R-group
// with each S-tuple is required.
//
// The protocol composes the paper's machinery: join keys are routed exactly
// like TreeIntersect routes set elements (balanced partition, weighted
// in-block hashing, smaller side replicated across blocks), but whole
// key-groups travel instead of single elements. A tuple costs 2 elements on
// the wire (key + payload).
//
// Tree and UniformHash are both Algorithm 2's round,
// place.BlockRouter.Round, over 2-word rows — the balanced partition's
// router with the smaller side replicated, or the one-block uniform router
// with both sides hashed — so a sender's rows leave through place.Scatter,
// the one keyed scatter. Local compute is sort-merge on the par kernels,
// forked by home: a home drains its inbox once, radix-sorts the two sides
// by key and merges them.
//
// No optimality theorem is claimed (output-optimal topology-aware joins are
// open), and a single extremely heavy key can still overload its target
// node — handling that requires per-key output-space splitting, which is
// exactly the open problem. The package exists to demonstrate composition
// of the primitives and is exercised by experiment X2.
package join

import (
	"fmt"
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
	// Blocks is the balanced partition used.
	Blocks [][]topology.NodeID
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

// Tree joins R and S on an arbitrary symmetric tree with the
// TreeIntersect-style routing described in the package comment. seed drives
// the shared hash functions.
func Tree(t *topology.Tree, r, s Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
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
			PerNode: make([]int64, len(nodes)),
			Sample:  make([][]Pair, len(nodes)),
			Report:  &netsim.Report{Tree: t},
		}, nil
	}

	blocks, err := place.BalancedPartition(t, loads, sizeR)
	if err != nil {
		return nil, err
	}
	router, err := place.NewBlockRouter(t, blocks, weights, seed, 1)
	if err != nil {
		return nil, err
	}
	// TagR carries the smaller side; swapped restores the (R-payload,
	// S-payload) orientation of the sampled pairs. Sorting the S rows fixes
	// the enumeration order the sample is taken in.
	res := finish(round(t, router, true, small, large, opts), nodes, true, swapped)
	res.Blocks = blocks
	return res, nil
}

// UniformHash is the topology-oblivious baseline: both relations are hashed
// by key uniformly over all compute nodes.
func UniformHash(t *topology.Tree, r, s Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	nodes, err := check(t, r, s)
	if err != nil {
		return nil, err
	}
	router, err := place.NewFlatRouter(t, place.Uniform(len(nodes)), seed, 0x10ad)
	if err != nil {
		return nil, err
	}
	return finish(round(t, router, false, r, s, opts), nodes, false, false), nil
}

func check(t *topology.Tree, r, s Placement) ([]topology.NodeID, error) {
	nodes := t.ComputeNodes()
	if len(r) != len(nodes) || len(s) != len(nodes) {
		return nil, fmt.Errorf("join: placements cover %d/%d nodes, tree has %d compute nodes",
			len(r), len(s), len(nodes))
	}
	return nodes, nil
}

// round runs Algorithm 2's round of router on an engine: r's rows under
// TagR — replicated across the blocks when replicate — and s's under TagS.
func round(t *topology.Tree, router *place.BlockRouter, replicate bool, r, s Placement, opts []netsim.Option) *netsim.Engine {
	e := netsim.NewEngine(t, opts...)
	x := e.Exchange()
	router.Round(x, 2, replicate, func(i int) ([]uint64, []uint64) { return words(r[i]), words(s[i]) })
	x.Execute()
	return e
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
