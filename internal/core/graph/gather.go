package graph

import (
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// gatherPlan is the gather candidate of CC and SpanningForest: every holder
// sends its edges, [u, v] each, to the compute node g, which runs one
// union-find over them. It is one round, of cost
// max_e 2·(edges held on e's far side from g)/w_e.
type gatherPlan struct {
	g    int             // compute index of the gathering node
	cost float64         // the round's cost
	edge topology.EdgeID // its bottleneck, NoEdge when nothing crosses a link
}

// priceGather picks the gathering node of least cost, the lowest compute
// index among equals, in one rerooting sweep over the subtree word counts.
// An edge e costs 2·Below(e)/w_e to a node above it and 2·Above(e)/w_e to a
// node below it, so a node's cost is the max of the second over the edges
// on its path to the root and of the first over every other edge. A
// bottom-up pass keeps, per node, the max of the first over the edges
// inside its subtree (in) and the two largest such terms over its child
// subtrees; a top-down pass carries the rest (out): the parent's out, the
// node's own edge from below and its siblings' terms. Everything is O(V).
func priceGather(t *topology.Tree, edges Placement) gatherPlan {
	loads := make(topology.Loads, t.NumNodes())
	for i, v := range t.ComputeNodes() {
		loads[v] = 2 * int64(len(edges[i]))
	}
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
	for _, v := range pre[1:] {
		p, e := t.Parent(v)
		sib := best1[p]
		if arg[p] == v {
			sib = best2[p]
		}
		out[v] = max(out[p], sib, above(e))
	}

	g, cost := 0, 0.0
	for i, v := range t.ComputeNodes() {
		if c := max(in[v], out[v]); i == 0 || c < cost {
			g, cost = i, c
		}
	}
	// The bottleneck as the engine names it: the costliest edge that carries
	// words, the lowest id among equals.
	gp := gatherPlan{g: g, edge: topology.NoEdge}
	gv := t.ComputeNodes()[g]
	for e := topology.EdgeID(0); int(e) < t.NumEdges(); e++ {
		far, c := cuts[e].Below, below(e)
		if t.OnChildSide(e, gv) {
			far, c = cuts[e].Above, above(e)
		}
		if far > 0 && c > gp.cost {
			gp.cost, gp.edge = c, e
		}
	}
	return gp
}

// candidate is the gather as a plan the engine runs: one round in which
// every holder but g sends its edges to g, none when no edge is held away
// from g (the plan costs 0).
func (gp gatherPlan) candidate(pr *proto, edges Placement) netsim.Candidate {
	rounds := 1
	if gp.cost == 0 {
		rounds = 0
	}
	return netsim.Candidate{Name: "gather", Rounds: rounds, Plan: func(x *netsim.Exchange, _ int, _ bool) {
		pr.plan(x, func(i int, out *netsim.Outbox) {
			if i == gp.g || len(edges[i]) == 0 {
				return
			}
			buf := pr.slab(i).grab(2 * len(edges[i]))
			for k, ed := range edges[i] {
				buf[2*k], buf[2*k+1] = uint64(uint32(pr.idxOf(ed.U))), uint64(uint32(pr.idxOf(ed.V)))
			}
			out.Send(pr.nodes[gp.g], tagEdge, buf)
		})
	}}
}

// gathered finishes a run the gather took over: node g unions its own edges
// and then the ones it received, in inbox order, and homes every vertex,
// labeled with the least id of its set. In witness mode every edge that
// joins two sets is a witness. Whatever phase 1 left in the home state is
// dropped first.
func (pr *proto) gathered(g int, edges Placement) *Result {
	for i := range pr.nodes {
		pr.homedVerts[i], pr.aliveList[i] = pr.homedVerts[i][:0], pr.aliveList[i][:0]
		if pr.witness {
			pr.forest[i] = pr.forest[i][:0]
		}
	}
	ws := &pr.wscr[0]
	st := ws.begin(len(pr.label), false)
	link := func(u, v int32) {
		if ws.union(st, u, v) && pr.witness {
			pr.forest[g] = append(pr.forest[g], Edge{U: pr.ids[u], V: pr.ids[v]})
		}
	}
	for _, ed := range edges[g] {
		link(pr.idxOf(ed.U), pr.idxOf(ed.V))
	}
	ib := pr.e.Inbox(pr.nodes[g])
	for mi := 0; mi < ib.Len(); mi++ {
		if m := ib.At(mi); m.Tag == tagEdge {
			for k := 0; k < len(m.Keys); k += 2 {
				link(int32(m.Keys[k]), int32(m.Keys[k+1]))
			}
		}
	}
	homed := pr.homedVerts[g]
	for x := range pr.label {
		r := ws.find(st, int32(x))
		pr.label[x] = r
		homed = append(homed, int32(x))
		if r == int32(x) {
			pr.aliveList[g] = append(pr.aliveList[g], r)
		}
	}
	pr.homedVerts[g] = homed
	return pr.assemble(0, "gather")
}
