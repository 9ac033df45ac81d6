// Package sorting implements the distributed sorting protocols of §5 of
// the paper: weighted TeraSort (wTS), a four-round sampling-based protocol
// that is within O(1) of the Theorem 6 lower bound with high probability,
// together with the classic TeraSort baseline and two planners that price
// their candidates on the instance and run the cheapest through
// netsim.Engine.RunCheapest: WTS (wTS or a gather at the heaviest holder)
// and CapacitySort (capacity splitters, uniform splitters, the gather and
// wTS).
//
// Every protocol here is a list of layouts run by one driver, planSort. A
// layout lays out a candidate: either a gather at one node, or a sample sort
// — an optional ship round, then the holders' samples to a coordinator, its
// splitters to the destinations, and the holders' keys redistributed by
// splitter interval. TeraSort and the capacity sorts hold every fragment
// where it starts; wTS first ships the light nodes' data to the heavy
// nodes, which hold, sample and receive.
//
// The goal of the task: given a valid left-to-right ordering v_1, …, v_|VC|
// of the compute nodes (any DFS traversal of the tree), redistribute the
// input so that every element on v_i precedes every element on v_j for
// i < j and every node's fragment is locally sorted.
package sorting

import (
	"fmt"
	"math/bits"

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
	// Strategy names the candidate the driver ran: "wts", "terasort", the
	// splitter sorts "sort-aware" (capacity ranges) and "sort-flat" (uniform
	// ranges), or "gather" at the heaviest holder. WTS and CapacitySort
	// report the candidate they priced cheapest.
	Strategy string
}

// Reference is what Verify checks a result against: the input in ascending
// order. It scatters the keys straight from the fragments into groups by
// their highest byte that is not the same in every key, then radix-sorts
// each group in place. The scratch is the size of the largest group, not a
// second copy of the input as a radix sort of the concatenation needs.
func Reference(input dataset.Placement) []uint64 {
	and, or := ^uint64(0), uint64(0)
	for _, frag := range input {
		for _, k := range frag {
			and &= k
			or |= k
		}
	}
	shift := 0
	if varying := and ^ or; varying != 0 {
		shift = (bits.Len64(varying) - 1) / 8 * 8
	}
	var off [257]int
	for _, frag := range input {
		for _, k := range frag {
			off[k>>shift&0xff+1]++
		}
	}
	largest := 0
	for b := 1; b <= 256; b++ {
		largest = max(largest, off[b])
		off[b] += off[b-1]
	}
	ref := make([]uint64, off[256])
	next := off
	for _, frag := range input {
		for _, k := range frag {
			g := k >> shift & 0xff
			ref[next[g]] = k
			next[g]++
		}
	}
	tmp := make([]uint64, largest)
	for b := 0; b < 256; b++ {
		g := ref[off[b]:off[b+1]]
		if sorted, _ := par.SerialSort(g, tmp); len(g) > 0 && &sorted[0] != &g[0] {
			copy(g, sorted)
		}
	}
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

// bucketOf locates x's interval: bucket j holds [splitters[j-1],
// splitters[j]), so j counts the splitters at or below x. The search halves
// the candidate range by arithmetic on the borrow of x − probe rather than
// by a branch, which random keys would mispredict half the time.
func bucketOf(x uint64, splitters []uint64) int {
	n := len(splitters)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n / 2
		_, below := bits.Sub64(x, splitters[base+half], 0) // 1 when x < probe
		base += half & (int(below) - 1)
		n -= half
	}
	_, below := bits.Sub64(x, splitters[base], 0)
	return base + 1 - int(below)
}
