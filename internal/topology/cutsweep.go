package topology

// CutSweep counts, for every edge of the tree at once, the join rows
// derivable from the inputs on each side of the edge's cut.
//
// The input is a sequence of small groups — one join value, one distinct
// output triangle — each given as the nodes holding its constituent tuples
// with a k-slot count vector per holder (slot j counts the holder's tuples
// of relation j). A group contributes Π_j c_j rows to a side holding c_j of
// its slot-j tuples, so for the cut at edge e with the subtree S under
// ChildEnd(e)
//
//	below(e) = Σ_groups Π_j c_j(S)
//	above(e) = Σ_groups Π_j (T_j − c_j(S))
//
// with T the group's totals. Counting each edge by itself costs a pass over
// the input per edge. Instead, c(S) only changes at the nodes of the
// group's virtual (auxiliary) tree — its holders closed under LCA, built
// with the tin-sorted stack walk PathAccumulator.AddSteiner uses — and is
// constant on the compressed chain of real edges from a virtual node v up
// to its virtual parent: S contains exactly the holders under v there. So
// EndGroup adds Π_j c_j(v) and Π_j (T_j − c_j(v)) − Π_j T_j (the rows
// derivable above, relative to the group's total) to two node-difference
// arrays at v and takes them off again at v's virtual parent; edges with no
// holder below see 0 and Π_j T_j, edges above the topmost virtual node see
// Π_j T_j and 0. One reverse-preorder subtree-sum in Cuts then yields every
// edge: O(h log h + h·k) per group of h holders plus O(V) once, instead of
// O(|E|) passes.
//
// Counts are non-negative. All arithmetic is in int64 and agrees with
// per-edge counting bit for bit even when products wrap: both compute the
// same polynomial in the ring of integers mod 2^64. A CutSweep is not safe
// for concurrent use.
type CutSweep struct {
	t *Tree
	k int
	// acc holds k counts per node: the open group's counts at its holders,
	// folded into subtree counts as EndGroup's walk pops virtual nodes.
	// All zero between groups.
	acc   []int64
	total []int64 // the open group's T
	below []int64 // node-difference arrays, one entry per node
	above []int64
	grand int64    // Σ_groups Π_j T_j
	open  []bool   // node is a holder of the open group
	terms []NodeID // the open group's holders
	stack []NodeID // EndGroup scratch: rightmost virtual-tree chain
}

// NewCutSweep returns a sweep over t for groups with k count slots.
func NewCutSweep(t *Tree, k int) *CutSweep {
	n := t.NumNodes()
	return &CutSweep{
		t:     t,
		k:     k,
		acc:   make([]int64, n*k),
		total: make([]int64, k),
		below: make([]int64, n),
		above: make([]int64, n),
		open:  make([]bool, n),
	}
}

// Add records n more slot-j tuples of the open group at node v. A node may
// be added any number of times, in any order.
func (s *CutSweep) Add(v NodeID, slot int, n int64) {
	if !s.open[v] {
		s.open[v] = true
		s.terms = append(s.terms, v)
	}
	s.acc[int(v)*s.k+slot] += n
	s.total[slot] += n
}

// EndGroup closes the open group, charging its rows to the difference
// arrays, and opens an empty one.
func (s *CutSweep) EndGroup() {
	all := int64(1)
	empty := false // some relation has no tuple: no row on any side
	for _, n := range s.total {
		all *= n
		empty = empty || n == 0
	}
	if empty {
		for _, v := range s.terms {
			clear(s.acc[int(v)*s.k : (int(v)+1)*s.k])
		}
	} else {
		s.grand += all
		s.walk(all)
	}
	for _, v := range s.terms {
		s.open[v] = false
	}
	clear(s.total)
	s.terms = s.terms[:0]
}

// walk builds the virtual tree over the open group's holders with the
// classic stack sweep — the stack holds the rightmost root-to-node chain —
// and folds every virtual node as it leaves the chain, children before
// parents, so a node's subtree counts are final when it is charged.
func (s *CutSweep) walk(all int64) {
	t := s.t
	sortByTin(t, s.terms)
	st := append(s.stack[:0], s.terms[0])
	for _, x := range s.terms[1:] {
		l := t.LCA(st[len(st)-1], x)
		for len(st) >= 2 && t.depth[st[len(st)-2]] >= t.depth[l] {
			s.fold(st[len(st)-1], st[len(st)-2], all)
			st = st[:len(st)-1]
		}
		if t.depth[st[len(st)-1]] > t.depth[l] {
			s.fold(st[len(st)-1], l, all)
			st[len(st)-1] = l
		}
		st = append(st, x)
	}
	for len(st) >= 2 {
		s.fold(st[len(st)-1], st[len(st)-2], all)
		st = st[:len(st)-1]
	}
	s.fold(st[0], NoNode, all)
	s.stack = st[:0]
}

// fold charges virtual node v, whose subtree counts are final, to the
// difference arrays and folds the counts into its virtual parent p (NoNode
// above the topmost virtual node). all is the group's Π_j T_j.
func (s *CutSweep) fold(v, p NodeID, all int64) {
	k := s.k
	cv := s.acc[int(v)*k : (int(v)+1)*k]
	in, out := int64(1), int64(1)
	for j, n := range cv {
		in *= n
		out *= s.total[j] - n
	}
	out -= all
	s.below[v] += in
	s.above[v] += out
	if p != NoNode {
		s.below[p] -= in
		s.above[p] -= out
		cp := s.acc[int(p)*k : (int(p)+1)*k]
		for j, n := range cv {
			cp[j] += n
		}
	}
	clear(cv)
}

// Cuts converts the groups closed so far into per-edge counts, indexed by
// EdgeID, with one reverse-preorder subtree-sum sweep, and resets the
// sweep. Close the last group with EndGroup first.
func (s *CutSweep) Cuts() []Cut {
	t := s.t
	pre := t.preorder
	cuts := make([]Cut, t.NumEdges())
	for i := len(pre) - 1; i >= 1; i-- {
		v := pre[i]
		p := t.parent[v]
		cuts[t.parentEdge[v]] = Cut{Below: s.below[v], Above: s.grand + s.above[v]}
		s.below[p] += s.below[v]
		s.above[p] += s.above[v]
		s.below[v], s.above[v] = 0, 0
	}
	s.below[t.root], s.above[t.root] = 0, 0
	s.grand = 0
	return cuts
}
