package topology

// Directed is the directed tree G† of §4.1 of the paper, derived from a
// symmetric tree and a load vector: each undirected edge (u, v) is kept in
// exactly one direction, pointing from the lighter side toward the heavier
// side (by total load). Lemma 4 guarantees that every node then has
// out-degree at most one and that exactly one node — the root of G† — has
// out-degree zero.
//
// Exact load ties are broken toward the side containing the underlying
// tree's internal root, which is equivalent to placing an infinitesimal
// extra load there; this makes the orientation strict and keeps Lemma 4
// valid even on trees with degree-2 nodes.
type Directed struct {
	t        *Tree
	root     NodeID
	parent   []NodeID  // G† parent per node; NoNode at the root
	outEdge  []EdgeID  // underlying undirected edge per node; NoEdge at root
	outBW    []float64 // w_v: bandwidth of the unique outgoing edge
	children [][]NodeID
}

// Orient builds G† for the given loads.
func Orient(t *Tree, loads Loads) *Directed {
	cuts := t.Cuts(loads)
	n := t.NumNodes()
	d := &Directed{
		t:        t,
		root:     NoNode,
		parent:   make([]NodeID, n),
		outEdge:  make([]EdgeID, n),
		outBW:    make([]float64, n),
		children: make([][]NodeID, n),
	}
	for v := range d.parent {
		d.parent[v] = NoNode
		d.outEdge[v] = NoEdge
	}
	for e := EdgeID(0); int(e) < t.NumEdges(); e++ {
		child := t.childEnd[e]
		par := t.parent[child]
		cut := cuts[e]
		// The tree root is always on the Above side, so Below <= Above is the
		// strict comparison under the infinitesimal tie-break.
		if cut.Below <= cut.Above {
			// Directed child -> par.
			d.setOut(child, par, e)
		} else {
			d.setOut(par, child, e)
		}
	}
	for v := NodeID(0); int(v) < n; v++ {
		if d.outEdge[v] == NoEdge {
			d.root = v
		}
	}
	return d
}

func (d *Directed) setOut(from, to NodeID, e EdgeID) {
	if d.outEdge[from] != NoEdge {
		// Lemma 4(1) violated; indicates a bug in orientation.
		panic("topology: node with out-degree > 1 in G†")
	}
	d.outEdge[from] = e
	d.parent[from] = to
	d.outBW[from] = d.t.bw[e]
	d.children[to] = append(d.children[to], from)
}

// Tree reports the underlying undirected tree.
func (d *Directed) Tree() *Tree { return d.t }

// Root reports the unique node with out-degree zero (Lemma 4(2)).
func (d *Directed) Root() NodeID { return d.root }

// RootIsCompute reports whether the G† root is a compute node; if so the
// paper's gather-to-root strategy is optimal for the cartesian product and
// Theorem 4 does not apply.
func (d *Directed) RootIsCompute() bool { return d.t.IsCompute(d.root) }

// Parent reports the G† parent of v, or NoNode for the root.
func (d *Directed) Parent(v NodeID) NodeID { return d.parent[v] }

// OutEdge reports the undirected edge carrying v's unique outgoing link, or
// NoEdge for the root.
func (d *Directed) OutEdge(v NodeID) EdgeID { return d.outEdge[v] }

// OutBandwidth reports w_v, the bandwidth of v's outgoing link. The root
// reports 0.
func (d *Directed) OutBandwidth(v NodeID) float64 { return d.outBW[v] }

// Children reports ζ(v), the nodes whose outgoing edge points to v. The
// returned slice is shared and must not be modified.
func (d *Directed) Children(v NodeID) []NodeID { return d.children[v] }

// PostOrder reports all nodes of G† in post-order (children before
// parents), as used by the bottom-up phase of Algorithm 5.
func (d *Directed) PostOrder() []NodeID {
	order := make([]NodeID, 0, d.t.NumNodes())
	var walk func(v NodeID)
	walk = func(v NodeID) {
		for _, c := range d.children[v] {
			walk(c)
		}
		order = append(order, v)
	}
	walk(d.root)
	return order
}

// SubtreeComputeCount reports, per node, how many compute nodes lie in its
// G† subtree (including itself).
func (d *Directed) SubtreeComputeCount() []int {
	cnt := make([]int, d.t.NumNodes())
	for _, v := range d.PostOrder() {
		if d.t.IsCompute(v) {
			cnt[v]++
		}
		for _, c := range d.children[v] {
			cnt[v] += cnt[c]
		}
	}
	return cnt
}
