package topology

// LeftToRight reports the compute nodes in the left-to-right traversal
// order defined in §5 of the paper: root the tree at its internal root and
// DFS, visiting children in edge-insertion order. Any such traversal is a
// valid ordering for the sorting task; this one is the canonical ordering
// used throughout the library.
func (t *Tree) LeftToRight() []NodeID {
	out := make([]NodeID, 0, t.NumCompute())
	for _, v := range t.preorder {
		if t.compute[v] {
			out = append(out, v)
		}
	}
	return out
}

// OrderIndex inverts an ordering: it maps each compute node to its position
// in the given order. Nodes absent from order map to -1.
func (t *Tree) OrderIndex(order []NodeID) []int {
	idx := make([]int, t.NumNodes())
	for i := range idx {
		idx[i] = -1
	}
	for i, v := range order {
		idx[v] = i
	}
	return idx
}
