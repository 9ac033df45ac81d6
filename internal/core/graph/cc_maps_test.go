package graph

import (
	"fmt"
	"slices"

	"topompc/internal/core/place"
	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// mapWorkEdge is one active contracted edge: the current endpoint labels plus
// the original witness endpoints (needed so a hooking can name a real
// graph edge after arbitrary relabelings).
type mapWorkEdge struct {
	a, b   uint64
	wu, wv uint64
}

// prop is a min-neighbor proposal for one label: the smallest neighbor
// label seen, with its witness edge. The total order (b, wu, wv) makes
// min-combining deterministic.
type prop struct {
	b, wu, wv uint64
}

func betterProp(x, y prop) bool {
	if x.b != y.b {
		return x.b < y.b
	}
	if x.wu != y.wu {
		return x.wu < y.wu
	}
	return x.wv < y.wv
}

// sortedKeys returns the map keys in ascending order, for deterministic
// message construction.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func upd(m map[uint64]prop, a uint64, p prop) {
	if q, ok := m[a]; !ok || betterProp(p, q) {
		m[a] = p
	}
}

// proto is the driver state of one protocol run. Everything is indexed by
// compute index (position in ComputeNodes).
type mapProto struct {
	t     *topology.Tree
	e     *netsim.Engine
	nodes []topology.NodeID
	idx   map[topology.NodeID]int
	home  func(uint64) int
	// steps is the multi-level combining schedule (place.Hierarchy.UpSweep,
	// deepest level first); empty = direct delivery. Each propose
	// exchange runs the sweep so payloads merge once per block per level
	// where combining pays, and lookups run it up and back down.
	steps   []place.UpStep
	witness bool

	active  [][]mapWorkEdge     // contracted edges held locally
	labelOf []map[uint64]uint64 // home state: vertex -> current label
	alive   []map[uint64]bool   // home state: labels owned here, still alive
	forest  [][]Edge            // witness edges per home (witness mode)

	// Per-phase scratch, reset each phase.
	best   []map[uint64]prop   // home state: min proposal per label
	parent []map[uint64]uint64 // home state: unresolved jump pointers
	rootOf []map[uint64]uint64 // home state: resolved roots, a -> root
}

// round executes one planned exchange with fn planning each compute node's
// sends.
func (pr *mapProto) round(fn func(i int, out *netsim.Outbox)) {
	x := pr.e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		fn(pr.idx[v], out)
	})
	x.Execute()
}

// sendByHome groups sorted labels (with optional payload encoding already
// applied) by home and queues one message per destination.
func (pr *mapProto) sendByHome(out *netsim.Outbox, tag netsim.Tag, groups map[int][]uint64) {
	for h := 0; h < len(pr.nodes); h++ {
		if batch := groups[h]; len(batch) > 0 {
			out.Send(pr.nodes[h], tag, batch)
		}
	}
}

// encodeProps serializes a proposal map in ascending label order: stride 2
// (a, b) or stride 4 (a, b, wu, wv) in witness mode.
func encodeProps(m map[uint64]prop, witness bool) []uint64 {
	stride := 2
	if witness {
		stride = 4
	}
	out := make([]uint64, 0, stride*len(m))
	for _, a := range sortedKeys(m) {
		p := m[a]
		out = append(out, a, p.b)
		if witness {
			out = append(out, p.wu, p.wv)
		}
	}
	return out
}

func decodePropsInto(dst map[uint64]prop, keys []uint64, witness bool) {
	stride := 2
	if witness {
		stride = 4
	}
	for k := 0; k+stride <= len(keys); k += stride {
		p := prop{b: keys[k+1]}
		if witness {
			p.wu, p.wv = keys[k+2], keys[k+3]
		}
		upd(dst, keys[k], p)
	}
}

// propose turns every active edge into min-neighbor proposals for both
// endpoint labels, min-combines them locally (and per block per level
// under a combining schedule), delivers them to the label homes, and
// min-merges them into pr.best. With verts (the first sweep of a run) it
// also registers the vertices: homes enroll every label a proposal names,
// and each node's vertices that no proposal it holds names travel as
// vertex entries beside the proposals, unioned per block like them and
// dropped by a combiner once it holds a proposal for them.
func (pr *mapProto) propose(verts []map[uint64]bool) {
	local := make([]map[uint64]prop, len(pr.nodes))
	lone := make([]map[uint64]bool, len(pr.nodes))
	for i := range pr.nodes {
		m := make(map[uint64]prop, 2*len(pr.active[i]))
		for _, ed := range pr.active[i] {
			upd(m, ed.a, prop{b: ed.b, wu: ed.wu, wv: ed.wv})
			upd(m, ed.b, prop{b: ed.a, wu: ed.wu, wv: ed.wv})
		}
		local[i] = m
		lone[i] = make(map[uint64]bool)
		if verts != nil {
			for x := range verts[i] {
				if _, ok := m[x]; !ok {
					lone[i][x] = true
				}
			}
		}
	}
	for _, st := range pr.steps {
		st := st
		pr.round(func(i int, out *netsim.Outbox) {
			if st.Target[i] == i {
				return
			}
			if len(local[i]) > 0 {
				out.Send(pr.nodes[st.Target[i]], tagProposeUp,
					encodeProps(local[i], pr.witness))
			}
			if batch := sortedKeys(lone[i]); len(batch) > 0 {
				out.Send(pr.nodes[st.Target[i]], tagVertexUp, batch)
			}
		})
		merged := make([]map[uint64]prop, len(pr.nodes))
		mergedLone := make([]map[uint64]bool, len(pr.nodes))
		for i, v := range pr.nodes {
			if st.Target[i] != i {
				merged[i] = make(map[uint64]prop) // forwarded up
				mergedLone[i] = make(map[uint64]bool)
				continue
			}
			merged[i], mergedLone[i] = local[i], lone[i] // scratch maps; merge in place
			ib := pr.e.Inbox(v)
			for mi := 0; mi < ib.Len(); mi++ {
				m := ib.At(mi)
				switch m.Tag {
				case tagProposeUp:
					decodePropsInto(merged[i], m.Keys, pr.witness)
				case tagVertexUp:
					for _, x := range m.Keys {
						mergedLone[i][x] = true
					}
				}
			}
			for x := range mergedLone[i] {
				if _, ok := merged[i][x]; ok {
					delete(mergedLone[i], x)
				}
			}
		}
		local, lone = merged, mergedLone
	}
	pr.round(func(i int, out *netsim.Outbox) {
		groups := make(map[int][]uint64)
		for _, a := range sortedKeys(local[i]) {
			h := pr.home(a)
			p := local[i][a]
			groups[h] = append(groups[h], a, p.b)
			if pr.witness {
				groups[h] = append(groups[h], p.wu, p.wv)
			}
		}
		pr.sendByHome(out, tagPropose, groups)
		groups = make(map[int][]uint64)
		for _, x := range sortedKeys(lone[i]) {
			groups[pr.home(x)] = append(groups[pr.home(x)], x)
		}
		pr.sendByHome(out, tagVertex, groups)
	})
	for i, v := range pr.nodes {
		pr.best[i] = make(map[uint64]prop)
		ib := pr.e.Inbox(v)
		for mi := 0; mi < ib.Len(); mi++ {
			m := ib.At(mi)
			switch m.Tag {
			case tagPropose:
				decodePropsInto(pr.best[i], m.Keys, pr.witness)
			case tagVertex:
				for _, x := range m.Keys {
					pr.enroll(i, x)
				}
			}
		}
		if verts != nil {
			for a := range pr.best[i] {
				pr.enroll(i, a)
			}
		}
	}
}

// enroll registers vertex x at its home i the first time the home hears of
// it: the vertex is alive and its label is itself.
func (pr *mapProto) enroll(i int, x uint64) {
	if _, ok := pr.labelOf[i][x]; !ok {
		pr.labelOf[i][x] = x
		pr.alive[i][x] = true
	}
}

// hook decides each alive label's fate from its best proposal: labels with
// a smaller neighbor label hook onto it (recording the witness edge in
// witness mode); the rest are roots. Returns the number of hooked labels.
func (pr *mapProto) hook() int {
	unresolved := 0
	for i := range pr.nodes {
		pr.parent[i] = make(map[uint64]uint64)
		pr.rootOf[i] = make(map[uint64]uint64)
		for _, a := range sortedKeys(pr.alive[i]) {
			if p, ok := pr.best[i][a]; ok && p.b < a {
				pr.parent[i][a] = p.b
				if pr.witness {
					pr.forest[i] = append(pr.forest[i], Edge{U: p.wu, V: p.wv})
				}
				unresolved++
			} else {
				pr.rootOf[i][a] = a
			}
		}
	}
	return unresolved
}

// jump resolves every hooked label to the root of its hooking tree by
// iterated pointer halving: each iteration, the home of an unresolved
// label asks the home of its current pointer target either for the root
// (when the target is resolved) or for the target's own pointer. Pointers
// strictly decrease along hooks, so the loop terminates in O(log chain)
// iterations.
func (pr *mapProto) jump(unresolved int) error {
	for iter := 0; unresolved > 0; iter++ {
		if iter == maxJumpIters {
			return fmt.Errorf("graph: pointer jumping did not converge after %d iterations", maxJumpIters)
		}
		// Queries: one per distinct pointer target per node.
		waiting := make([]map[uint64][]uint64, len(pr.nodes))
		pr.round(func(i int, out *netsim.Outbox) {
			w := make(map[uint64][]uint64)
			for _, a := range sortedKeys(pr.parent[i]) {
				q := pr.parent[i][a]
				w[q] = append(w[q], a)
			}
			waiting[i] = w
			groups := make(map[int][]uint64)
			for _, q := range sortedKeys(w) {
				groups[pr.home(q)] = append(groups[pr.home(q)], q)
			}
			pr.sendByHome(out, tagJumpQ, groups)
		})
		// Replies: root when the target is resolved, one pointer step
		// otherwise.
		pr.round(func(j int, out *netsim.Outbox) {
			ib := pr.e.Inbox(pr.nodes[j])
			for mi := 0; mi < ib.Len(); mi++ {
				m := ib.At(mi)
				if m.Tag != tagJumpQ {
					continue
				}
				var roots, steps []uint64
				for _, q := range m.Keys {
					if r, ok := pr.rootOf[j][q]; ok {
						roots = append(roots, q, r)
					} else if pq, ok := pr.parent[j][q]; ok {
						steps = append(steps, q, pq)
					}
				}
				if len(roots) > 0 {
					out.Send(m.From, tagJumpRoot, roots)
				}
				if len(steps) > 0 {
					out.Send(m.From, tagJumpStep, steps)
				}
			}
		})
		unresolved = 0
		for i, v := range pr.nodes {
			ib := pr.e.Inbox(v)
			for mi := 0; mi < ib.Len(); mi++ {
				m := ib.At(mi)
				switch m.Tag {
				case tagJumpRoot:
					for k := 0; k+1 < len(m.Keys); k += 2 {
						q, r := m.Keys[k], m.Keys[k+1]
						for _, a := range waiting[i][q] {
							pr.rootOf[i][a] = r
							delete(pr.parent[i], a)
						}
					}
				case tagJumpStep:
					for k := 0; k+1 < len(m.Keys); k += 2 {
						q, pq := m.Keys[k], m.Keys[k+1]
						for _, a := range waiting[i][q] {
							pr.parent[i][a] = pq
						}
					}
				}
			}
			unresolved += len(pr.parent[i])
		}
	}
	return nil
}

// lookups fetches the phase roots every node needs — the endpoint labels
// of its active edges plus the current labels of its homed vertices, except
// in the first phase, where every homed vertex is its own label and its
// home resolved the root itself — and returns the per-node label → root
// maps. Direct mode is a query/reply pair; under a combining schedule,
// queries are deduplicated along the hierarchy (each engaged level's
// combiner unions its members' needs before they cross that level's cut),
// the top carriers query the homes once per distinct label, and the
// answers fan back down the same chain, so a hot label's root crosses each
// engaged cut once per block per level.
func (pr *mapProto) lookups(first bool) []map[uint64]uint64 {
	needs := make([]map[uint64]bool, len(pr.nodes))
	for i := range pr.nodes {
		nd := make(map[uint64]bool)
		for _, ed := range pr.active[i] {
			nd[ed.a] = true
			nd[ed.b] = true
		}
		if !first {
			for _, l := range pr.labelOf[i] {
				nd[l] = true
			}
		}
		needs[i] = nd
	}

	if len(pr.steps) == 0 {
		pr.round(func(i int, out *netsim.Outbox) {
			groups := make(map[int][]uint64)
			for _, a := range sortedKeys(needs[i]) {
				groups[pr.home(a)] = append(groups[pr.home(a)], a)
			}
			pr.sendByHome(out, tagLookupQ, groups)
		})
		pr.replyLookups()
		return pr.collectRoots(tagLookupA)
	}

	// Up-sweep: members push their needs one level at a time; each engaged
	// combiner records who asked for what (to fan the answers back) and
	// carries the union upward.
	type memberNeed struct {
		from   topology.NodeID
		labels []uint64
	}
	perStep := make([][][]memberNeed, len(pr.steps))
	carry := needs
	for s, st := range pr.steps {
		st := st
		pr.round(func(i int, out *netsim.Outbox) {
			if st.Target[i] == i {
				return
			}
			if batch := sortedKeys(carry[i]); len(batch) > 0 {
				out.Send(pr.nodes[st.Target[i]], tagLookupUp, batch)
			}
		})
		perStep[s] = make([][]memberNeed, len(pr.nodes))
		next := make([]map[uint64]bool, len(pr.nodes))
		for i, v := range pr.nodes {
			if st.Target[i] != i {
				next[i] = make(map[uint64]bool) // forwarded up
				continue
			}
			m := carry[i]
			ib := pr.e.Inbox(v)
			for mi := 0; mi < ib.Len(); mi++ {
				msg := ib.At(mi)
				if msg.Tag != tagLookupUp {
					continue
				}
				// The down-sweep reads these labels rounds later, after the
				// inbox pool behind msg.Keys has been recycled — copy them.
				asked := append([]uint64(nil), msg.Keys...)
				perStep[s][i] = append(perStep[s][i], memberNeed{from: msg.From, labels: asked})
				for _, a := range msg.Keys {
					m[a] = true
				}
			}
			next[i] = m
		}
		carry = next
	}

	// Top carriers query the homes once per distinct label; homes reply.
	pr.round(func(i int, out *netsim.Outbox) {
		groups := make(map[int][]uint64)
		for _, a := range sortedKeys(carry[i]) {
			groups[pr.home(a)] = append(groups[pr.home(a)], a)
		}
		pr.sendByHome(out, tagLookupQ, groups)
	})
	pr.replyLookups()
	rootAt := pr.collectRoots(tagLookupA)

	// Down-sweep, coarsest level first: combiners answer each recorded
	// member exactly what it asked for, so deeper combiners hold their
	// roots before answering their own members.
	for s := len(pr.steps) - 1; s >= 0; s-- {
		pr.round(func(j int, out *netsim.Outbox) {
			for _, mn := range perStep[s][j] {
				reply := make([]uint64, 0, 2*len(mn.labels))
				for _, a := range mn.labels {
					if r, ok := rootAt[j][a]; ok {
						reply = append(reply, a, r)
					}
				}
				if len(reply) > 0 {
					out.Send(mn.from, tagLookupDown, reply)
				}
			}
		})
		for i, v := range pr.nodes {
			ib := pr.e.Inbox(v)
			for mi := 0; mi < ib.Len(); mi++ {
				m := ib.At(mi)
				if m.Tag != tagLookupDown {
					continue
				}
				for k := 0; k+1 < len(m.Keys); k += 2 {
					rootAt[i][m.Keys[k]] = m.Keys[k+1]
				}
			}
		}
	}
	return rootAt
}

// replyLookups plans the home side of a lookup round: answer every queried
// label with its resolved root.
func (pr *mapProto) replyLookups() {
	pr.round(func(j int, out *netsim.Outbox) {
		ib := pr.e.Inbox(pr.nodes[j])
		for mi := 0; mi < ib.Len(); mi++ {
			m := ib.At(mi)
			if m.Tag != tagLookupQ {
				continue
			}
			reply := make([]uint64, 0, 2*len(m.Keys))
			for _, a := range m.Keys {
				if r, ok := pr.rootOf[j][a]; ok {
					reply = append(reply, a, r)
				}
			}
			if len(reply) > 0 {
				out.Send(m.From, tagLookupA, reply)
			}
		}
	})
}

func (pr *mapProto) collectRoots(tag netsim.Tag) []map[uint64]uint64 {
	rmap := make([]map[uint64]uint64, len(pr.nodes))
	for i, v := range pr.nodes {
		rmap[i] = make(map[uint64]uint64)
		ib := pr.e.Inbox(v)
		for mi := 0; mi < ib.Len(); mi++ {
			m := ib.At(mi)
			if m.Tag != tag {
				continue
			}
			for k := 0; k+1 < len(m.Keys); k += 2 {
				rmap[i][m.Keys[k]] = m.Keys[k+1]
			}
		}
	}
	return rmap
}

// relabel rewrites every active edge onto the phase roots, dropping edges
// that became internal, updates the homed vertex labels (in the first
// phase from the home's own roots, which lookups did not fetch), and
// retires the labels that hooked.
func (pr *mapProto) relabel(rmap []map[uint64]uint64, first bool) error {
	for i := range pr.nodes {
		out := pr.active[i][:0]
		for _, ed := range pr.active[i] {
			ra, ok1 := rmap[i][ed.a]
			rb, ok2 := rmap[i][ed.b]
			if !ok1 || !ok2 {
				return fmt.Errorf("graph: node %d missing root for edge label (%d,%d)", i, ed.a, ed.b)
			}
			if ra != rb {
				out = append(out, mapWorkEdge{a: ra, b: rb, wu: ed.wu, wv: ed.wv})
			}
		}
		pr.active[i] = out
		for v, l := range pr.labelOf[i] {
			r, ok := rmap[i][l]
			if first {
				r, ok = pr.rootOf[i][l]
			}
			if !ok {
				return fmt.Errorf("graph: node %d missing root for vertex label %d", i, l)
			}
			pr.labelOf[i][v] = r
		}
		for _, a := range sortedKeys(pr.alive[i]) {
			if pr.rootOf[i][a] != a {
				delete(pr.alive[i], a)
			}
		}
	}
	return nil
}

func (pr *mapProto) totalActive() int {
	n := 0
	for i := range pr.active {
		n += len(pr.active[i])
	}
	return n
}

// runMaps runs the retired map-based contraction: home state held in
// per-node hash maps and per-round proposal maps, exactly as the protocol
// shipped before the int-indexed data plane. It produces byte-identical
// cost reports and checksums to CC/CCFlat/SpanningForest and lives in a
// test file as the equivalence oracle of the property tests and the
// baseline leg of the contraction benchmarks.
func runMaps(tr *topology.Tree, edges Placement, seed uint64, aware, witness bool, opts []netsim.Option) (*Result, error) {
	if err := checkPlacement(tr, edges); err != nil {
		return nil, err
	}
	p := tr.NumCompute()
	nodes := tr.ComputeNodes()
	idx := make(map[topology.NodeID]int, p)
	for i, v := range nodes {
		idx[v] = i
	}

	var weights []float64
	if aware {
		weights = place.Capacities(tr)
	} else {
		weights = place.Uniform(p)
	}
	chooser, err := hashing.NewWeightedChooser(hashing.Mix64(seed+0xCC0C), weights)
	if err != nil {
		return nil, err
	}

	strategy := "flat"
	var steps []place.UpStep
	if aware {
		strategy = "aware"
		if h := place.HierarchyFor(tr); h != nil {
			if steps = h.UpSweep(weights); len(steps) > 0 {
				strategy = fmt.Sprintf("aware+combine×%d", len(steps))
			}
		}
	}

	pr := &mapProto{
		t:       tr,
		e:       netsim.NewEngine(tr, opts...),
		nodes:   nodes,
		idx:     idx,
		home:    chooser.Choose,
		steps:   steps,
		witness: witness,
		active:  make([][]mapWorkEdge, p),
		labelOf: make([]map[uint64]uint64, p),
		alive:   make([]map[uint64]bool, p),
		best:    make([]map[uint64]prop, p),
		parent:  make([]map[uint64]uint64, p),
		rootOf:  make([]map[uint64]uint64, p),
	}
	if witness {
		pr.forest = make([][]Edge, p)
	}

	verts := make([]map[uint64]bool, p)
	for i, frag := range edges {
		verts[i] = make(map[uint64]bool, 2*len(frag))
		for _, ed := range frag {
			verts[i][ed.U] = true
			verts[i][ed.V] = true
			if ed.U != ed.V {
				pr.active[i] = append(pr.active[i], mapWorkEdge{a: ed.U, b: ed.V, wu: ed.U, wv: ed.V})
			}
		}
	}
	for i := range pr.labelOf {
		pr.labelOf[i] = make(map[uint64]uint64)
		pr.alive[i] = make(map[uint64]bool)
	}

	// The first propose sweep registers the vertices; with no edge between
	// two vertices it is sent alone, and is no phase.
	phases := 0
	if pr.totalActive() == 0 {
		pr.propose(verts)
	}
	for pr.totalActive() > 0 {
		if phases == maxPhases {
			return nil, fmt.Errorf("graph: contraction did not converge after %d phases", maxPhases)
		}
		phases++
		pr.propose(verts)
		verts = nil // registered by the first sweep
		if err := pr.jump(pr.hook()); err != nil {
			return nil, err
		}
		first := phases == 1
		if err := pr.relabel(pr.lookups(first), first); err != nil {
			return nil, err
		}
	}

	res := &Result{
		PerNode:  make([]map[uint64]uint64, p),
		Phases:   phases,
		Strategy: strategy,
	}
	for i := range nodes {
		res.PerNode[i] = pr.labelOf[i]
		res.Components += int64(len(pr.alive[i]))
		// The homes partition the vertices, so summing the per-home
		// fingerprints equals Checksum over the merged labeling.
		res.Checksum += Checksum(pr.labelOf[i])
	}
	if witness {
		for i := range nodes {
			res.Forest = append(res.Forest, pr.forest[i]...)
		}
	}
	res.Report = pr.e.Report()
	return res, nil
}
