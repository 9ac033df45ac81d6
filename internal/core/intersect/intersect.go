// Package intersect implements the set-intersection protocols of §3 of the
// paper: the randomized single-round StarIntersect (Algorithm 1), the
// general TreeIntersect (Algorithm 2) built on the balanced partition of
// Algorithm 3, and the topology-oblivious baselines they are compared
// against. TreeIntersect, its no-partition ablation and the uniform hash
// baseline are one round, place.BlockRouter.Round, under three routers.
//
// All protocols execute on the netsim engine, so their reported cost is the
// model cost Σ_i max_e |Y_i(e)|/w_e in elements, directly comparable with
// the Theorem 1 lower bound computed by package lowerbound.
package intersect

import (
	"fmt"
	"slices"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// Result is the outcome of a set-intersection protocol.
type Result struct {
	// PerNode holds the intersection pairs emitted by each compute node (in
	// ComputeNodes order); the union over nodes is the full R ∩ S, and a
	// key may be emitted by more than one node.
	PerNode [][]uint64
	// Output is the deduplicated, sorted union of PerNode.
	Output []uint64
	// Report is the cost accounting of the execution.
	Report *netsim.Report
	// Blocks is the balanced partition used by TreeIntersect (nil for other
	// protocols).
	Blocks [][]topology.NodeID
}

// instance is the validated, orientation-normalized form of an input: rel0
// is the smaller relation (the paper's R, which gets replicated), rel1 the
// larger.
type instance struct {
	t          *topology.Tree
	nodes      []topology.NodeID
	rel0, rel1 dataset.Placement
	size0      int64 // |R| of the smaller relation
	size1      int64
	loads      topology.Loads // N_v = |R_v| + |S_v|
}

func newInstance(t *topology.Tree, r, s dataset.Placement) (*instance, error) {
	nodes := t.ComputeNodes()
	if len(r) != len(nodes) || len(s) != len(nodes) {
		return nil, fmt.Errorf("intersect: placements cover %d/%d nodes, tree has %d compute nodes",
			len(r), len(s), len(nodes))
	}
	var sizeR, sizeS int64
	for i := range r {
		sizeR += int64(len(r[i]))
		sizeS += int64(len(s[i]))
	}
	in := &instance{t: t, nodes: nodes, rel0: r, rel1: s, size0: sizeR, size1: sizeS}
	if sizeS < sizeR {
		in.rel0, in.rel1 = s, r
		in.size0, in.size1 = sizeS, sizeR
	}
	loads := make(topology.Loads, t.NumNodes())
	for i, v := range nodes {
		loads[v] = int64(len(r[i]) + len(s[i]))
	}
	in.loads = loads
	return in, nil
}

// emptyResult is returned when either relation is empty: the intersection
// is empty and no communication is needed.
func (in *instance) emptyResult() *Result {
	return &Result{
		PerNode: make([][]uint64, len(in.nodes)),
		Report:  &netsim.Report{Tree: in.t},
	}
}

// finish collects per-node outputs by intersecting the R- and S-keys
// present at each node after the communication round: each home sorts and
// dedups its two key lists on the engine's pool and merges them. The three
// working buffers are shared by all homes.
func finish(e *netsim.Engine, in *instance, extraS func(i int) []uint64) *Result {
	res := &Result{PerNode: make([][]uint64, len(in.nodes))}
	pool := e.Pool()
	var rKeys, sKeys, tmp []uint64
	total := 0
	for i, v := range in.nodes {
		ib := e.Inbox(v)
		rKeys = ib.AppendKeys(rKeys[:0], netsim.TagR)
		sKeys = ib.AppendKeys(sKeys[:0], netsim.TagS)
		if extraS != nil {
			sKeys = append(sKeys, extraS(i)...)
		}
		rKeys, tmp = pool.SortUnique(rKeys, tmp)
		sKeys, tmp = pool.SortUnique(sKeys, tmp)
		if both := par.IntersectSorted(rKeys[:0], rKeys, sKeys); len(both) > 0 {
			res.PerNode[i] = slices.Clone(both)
			total += len(both)
		}
	}
	// A key may be emitted at several nodes: the output is the set union.
	if total > 0 {
		all := make([]uint64, 0, total)
		for _, frag := range res.PerNode {
			all = append(all, frag...)
		}
		res.Output, _ = pool.SortUnique(all, tmp)
	}
	res.Report = e.Report()
	return res
}

// Reference computes R ∩ S directly (for verification). It hashes where the
// protocols sort and merge, so the two share no set logic.
func Reference(r, s dataset.Placement) []uint64 {
	// Value: whether the key has been emitted already.
	inR := make(map[uint64]bool, r.Total())
	for _, frag := range r {
		for _, k := range frag {
			inR[k] = false
		}
	}
	var out []uint64
	for _, frag := range s {
		for _, k := range frag {
			if emitted, ok := inR[k]; ok && !emitted {
				inR[k] = true
				out = append(out, k)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Verify checks that the protocol output equals want, the Reference of its
// input.
func Verify(want []uint64, res *Result) error {
	if len(want) != len(res.Output) {
		return fmt.Errorf("intersect: output has %d keys, want %d", len(res.Output), len(want))
	}
	for i := range want {
		if want[i] != res.Output[i] {
			return fmt.Errorf("intersect: output mismatch at %d: %d != %d", i, res.Output[i], want[i])
		}
	}
	return nil
}
