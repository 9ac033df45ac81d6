// Package sorting implements the distributed sorting protocols of §5 of
// the paper: weighted TeraSort (wTS), a four-round sampling-based protocol
// that is within O(1) of the Theorem 6 lower bound with high probability,
// together with the classic TeraSort and gather baselines.
//
// The goal of the task: given a valid left-to-right ordering v_1, …, v_|VC|
// of the compute nodes (any DFS traversal of the tree), redistribute the
// input so that every element on v_i precedes every element on v_j for
// i < j and every node's fragment is locally sorted.
package sorting

import (
	"fmt"
	"math/rand"
	"sort"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// Result is the outcome of a sorting protocol.
type Result struct {
	// PerNode is each compute node's final sorted fragment, indexed in
	// ComputeNodes order.
	PerNode [][]uint64
	// Order is the valid left-to-right ordering the output respects.
	Order []topology.NodeID
	// Report is the cost accounting.
	Report *netsim.Report
	// Strategy identifies the protocol path: "wts", "gather", "terasort",
	// or the capacity-splitter pair "sort-aware" / "sort-flat".
	Strategy string
}

// instance validates a sorting input.
type instance struct {
	t     *topology.Tree
	nodes []topology.NodeID
	data  dataset.Placement
	loads topology.Loads
	total int64
}

func newInstance(t *topology.Tree, data dataset.Placement) (*instance, error) {
	nodes := t.ComputeNodes()
	if len(data) != len(nodes) {
		return nil, fmt.Errorf("sorting: placement covers %d nodes, tree has %d compute nodes",
			len(data), len(nodes))
	}
	in := &instance{t: t, nodes: nodes, data: data}
	loads := make(topology.Loads, t.NumNodes())
	for i, v := range nodes {
		loads[v] = int64(len(data[i]))
		in.total += loads[v]
	}
	in.loads = loads
	return in, nil
}

// emptyResult is what every protocol returns for an empty input: nothing
// moves.
func (in *instance) emptyResult(strategy string) *Result {
	return &Result{
		PerNode:  make([][]uint64, len(in.nodes)),
		Order:    in.t.LeftToRight(),
		Report:   &netsim.Report{Tree: in.t},
		Strategy: strategy,
	}
}

// Reference is what Verify checks a result against: the input in ascending
// order.
func Reference(input dataset.Placement) []uint64 {
	ref, _ := par.SerialSortUint64(input.Flatten(), nil)
	return ref
}

// Verify checks that res is a correct sort of the input whose Reference is
// ref: res.Order lists every compute node once, every fragment is locally
// sorted, fragments respect that ordering, and the output is a permutation
// of the input.
func Verify(t *topology.Tree, ref []uint64, res *Result) error {
	n := t.NumCompute()
	if len(res.PerNode) != n {
		return fmt.Errorf("sorting: output covers %d nodes, want %d", len(res.PerNode), n)
	}
	if len(res.Order) != n {
		return fmt.Errorf("sorting: ordering covers %d nodes, want %d", len(res.Order), n)
	}
	// Sortedness: read along res.Order, the fragments form one ascending
	// sequence.
	placed := make([]bool, n)
	outLen := 0
	last := uint64(0)
	started := false
	for _, v := range res.Order {
		if uint(v) >= uint(t.NumNodes()) || !t.IsCompute(v) {
			return fmt.Errorf("sorting: ordering contains unknown node %v", v)
		}
		i := t.ComputeIndex(v)
		if placed[i] {
			return fmt.Errorf("sorting: ordering lists node %v twice", v)
		}
		placed[i] = true
		frag := res.PerNode[i]
		for j := 1; j < len(frag); j++ {
			if frag[j-1] > frag[j] {
				return fmt.Errorf("sorting: node %d fragment not sorted at %d", i, j)
			}
		}
		if len(frag) == 0 {
			continue
		}
		if started && frag[0] < last {
			return fmt.Errorf("sorting: node %v starts at %d, before previous node's max %d", v, frag[0], last)
		}
		last = frag[len(frag)-1]
		started = true
		outLen += len(frag)
	}
	if outLen != len(ref) {
		return fmt.Errorf("sorting: output has %d elements, want %d", outLen, len(ref))
	}
	// Multiset equality: that sequence is ascending and res.Order is a
	// permutation of the nodes, so the output is a permutation of the input
	// exactly when the sequence equals the sorted input, element by element.
	pos := 0
	for _, v := range res.Order {
		for _, k := range res.PerNode[t.ComputeIndex(v)] {
			if ref[pos] != k {
				return fmt.Errorf("sorting: output is not a permutation of the input (mismatch at %d)", pos)
			}
			pos++
		}
	}
	return nil
}

// sortedSamples is the coordinator's local step of every sampling sort:
// the samples v received in the last round, sorted on the engine's pool.
func sortedSamples(e *netsim.Engine, v topology.NodeID) []uint64 {
	samples, _ := e.Pool().SortUint64(e.Inbox(v).Keys(netsim.TagSample), nil)
	return samples
}

// sortReceived is the closing local step of every protocol here: each
// compute node sorts the data it received in the last round. The sorts run
// on the engine's pool, one home after the other, and hand one radix
// scratch buffer from home to home.
func sortReceived(e *netsim.Engine, nodes []topology.NodeID) [][]uint64 {
	perNode := make([][]uint64, len(nodes))
	var tmp []uint64
	for i, v := range nodes {
		perNode[i], tmp = e.Pool().SortUint64(e.Inbox(v).Keys(netsim.TagData), tmp)
	}
	return perNode
}

// sample draws the Bernoulli(ρ) sample a node sends the coordinator, from a
// generator of its own seed.
func sample(frag []uint64, seed int64, rho float64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	for _, x := range frag {
		if rng.Float64() < rho {
			out = append(out, x)
		}
	}
	return out
}

// bucketOf locates x's interval: bucket j holds [splitters[j-1],
// splitters[j]).
func bucketOf(x uint64, splitters []uint64) int {
	return sort.Search(len(splitters), func(i int) bool { return x < splitters[i] })
}

// sendBySplitter queues the redistribution step of every splitter-based
// sort here (the sample sorts' round 3, wTS round 4): the keys of splitter
// interval j go to dsts[j] in one message, in fragment order.
func sendBySplitter(out *netsim.Outbox, keys, splitters []uint64, dsts []topology.NodeID) {
	bucket := make([]int32, len(keys))
	for j, x := range keys {
		bucket[j] = int32(bucketOf(x, splitters))
	}
	pos, off := par.Layout(bucket, len(dsts))
	buf := make([]uint64, len(keys))
	for j, x := range keys {
		buf[pos[j]] = x
	}
	for j, to := range dsts {
		if off[j] < off[j+1] {
			out.Send(to, netsim.TagData, buf[off[j]:off[j+1]])
		}
	}
}

// gather ships everything to one node (the holder of the most data unless
// target is given), which sorts locally. Trivially a valid ordering: every
// other node is empty.
func gather(in *instance, target int, strategy string, opts []netsim.Option) (*Result, error) {
	e := netsim.NewEngine(in.t, opts...)
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		if frag := in.data[in.t.ComputeIndex(v)]; len(frag) > 0 {
			out.Send(in.nodes[target], netsim.TagData, frag)
		}
	})
	x.Execute()
	return &Result{
		PerNode:  sortReceived(e, in.nodes),
		Order:    in.t.LeftToRight(),
		Report:   e.Report(),
		Strategy: strategy,
	}, nil
}

// Gather is the gather-to-one baseline. With target = NoNode the node
// holding the most data is chosen.
func Gather(t *topology.Tree, data dataset.Placement, target topology.NodeID, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, data)
	if err != nil {
		return nil, err
	}
	idx := 0
	if target == topology.NoNode {
		for i := range in.nodes {
			if in.loads[in.nodes[i]] > in.loads[in.nodes[idx]] {
				idx = i
			}
		}
	} else {
		found := false
		for i, v := range in.nodes {
			if v == target {
				idx, found = i, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("sorting: target %v is not a compute node", target)
		}
	}
	return gather(in, idx, "gather", opts)
}
