package graph

import (
	"topompc/internal/core/place"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// priceGather prices the gather candidate of CC and SpanningForest at the
// node place.Gather picks: every holder sends its edges, [u, v] each, to
// that node, which runs one union-find over them.
func priceGather(t *topology.Tree, edges Placement) place.GatherPlan {
	loads := make(topology.Loads, t.NumNodes())
	for i, v := range t.ComputeNodes() {
		loads[v] = 2 * int64(len(edges[i]))
	}
	return place.Gather(t, loads)
}

// gatherCandidate is the gather as a plan the engine runs: one round in
// which every holder but the gathering node sends it its edges, none when
// no edge is held away from it (the plan costs 0).
func (pr *proto) gatherCandidate(gp place.GatherPlan, edges Placement) netsim.Candidate {
	rounds := 1
	if gp.Cost == 0 {
		rounds = 0
	}
	return netsim.Candidate{Name: "gather", Rounds: rounds, Plan: func(x *netsim.Exchange, _ int) {
		pr.plan(x, func(i int, out *netsim.Outbox) {
			if i == gp.Node || len(edges[i]) == 0 {
				return
			}
			buf := pr.slab(i).grab(2 * len(edges[i]))
			for k, ed := range edges[i] {
				buf[2*k], buf[2*k+1] = uint64(uint32(pr.idxOf(ed.U))), uint64(uint32(pr.idxOf(ed.V)))
			}
			out.Send(pr.nodes[gp.Node], tagEdge, buf)
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
