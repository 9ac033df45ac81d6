package place

import "topompc/internal/topology"

// GatherPlan is where a one-round gather lands and what its round costs.
type GatherPlan struct {
	Node       int             // the gathering node's compute index
	Cost       float64         // max_e (words on e's far side from Node)/w_e
	Bottleneck topology.EdgeID // the costliest edge, NoEdge when nothing crosses a link
}

// Gather picks the node a one-round gather costs least at: every compute
// node v sends its loads[v] words to one compute node. Among nodes of equal
// cost it picks the one whose gather moves the fewest words over all links,
// Σ_e (words on e's far side), then the lowest compute index. The
// bottleneck is named as the engine names it: the lowest edge id among the
// costliest. Theorem 3 makes that gather optimal whenever a gather is.
//
// One rerooting sweep prices every node. An edge e costs Below(e)/w_e to a
// node above it and Above(e)/w_e to a node below it, so a node's cost is
// the max of the second over the edges on its path to the root and of the
// first over every other edge. A bottom-up pass keeps, per node, the max of
// the first over the edges inside its subtree (in) and the two largest such
// terms over its child subtrees; a top-down pass carries the rest (out):
// the parent's out, the node's own edge from below and its siblings' terms.
// The same top-down pass reroots the words moved: Σ_e Below(e) at the root,
// and stepping down edge e trades Below(e) for Above(e). Everything is O(V).
func Gather(t *topology.Tree, loads topology.Loads) GatherPlan {
	cuts := t.Cuts(loads)
	below := func(e topology.EdgeID) float64 { return float64(cuts[e].Below) / t.Bandwidth(e) }
	above := func(e topology.EdgeID) float64 { return float64(cuts[e].Above) / t.Bandwidth(e) }

	pre := t.Preorder()
	in := make([]float64, t.NumNodes())
	best1, best2 := make([]float64, t.NumNodes()), make([]float64, t.NumNodes())
	arg := make([]topology.NodeID, t.NumNodes()) // the child whose term is best1
	for i := len(pre) - 1; i >= 1; i-- {
		v := pre[i]
		p, e := t.Parent(v)
		term := max(in[v], below(e))
		in[p] = max(in[p], term)
		switch {
		case term > best1[p]:
			best1[p], best2[p], arg[p] = term, best1[p], v
		case term > best2[p]:
			best2[p] = term
		}
	}
	out := make([]float64, t.NumNodes())
	moved := make([]int64, t.NumNodes())
	for _, c := range cuts {
		moved[pre[0]] += c.Below
	}
	for _, v := range pre[1:] {
		p, e := t.Parent(v)
		sib := best1[p]
		if arg[p] == v {
			sib = best2[p]
		}
		out[v] = max(out[p], sib, above(e))
		moved[v] = moved[p] - cuts[e].Below + cuts[e].Above
	}

	gp := GatherPlan{Bottleneck: topology.NoEdge}
	var least int64
	for i, v := range t.ComputeNodes() {
		if c := max(in[v], out[v]); i == 0 || c < gp.Cost || c == gp.Cost && moved[v] < least {
			gp.Node, gp.Cost, least = i, c, moved[v]
		}
	}
	// The bottleneck is the first edge whose term is the node's cost.
	g := t.ComputeNodes()[gp.Node]
	for e := topology.EdgeID(0); int(e) < t.NumEdges() && gp.Bottleneck == topology.NoEdge; e++ {
		c := below(e)
		if t.OnChildSide(e, g) {
			c = above(e)
		}
		if c > 0 && c == gp.Cost {
			gp.Bottleneck = e
		}
	}
	return gp
}
