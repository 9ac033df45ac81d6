package graph

import (
	"errors"
	"fmt"
	"maps"
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

// prop is a min-neighbor proposal a node holds for one label: the smallest
// neighbor label seen, and where it came from — at a holder its own witness
// edge w, the least in the total order (b, wu, wv), and at a combiner or a
// home the won flag of the received entry it was taken from, the first
// offered of equal b's.
type prop struct {
	b   uint64
	w   Edge
	won *bool
}

func betterProp(x, y prop) bool {
	if x.b != y.b {
		return x.b < y.b
	}
	if x.w.U != y.w.U {
		return x.w.U < y.w.U
	}
	return x.w.V < y.w.V
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

// upd offers a holder's own proposal under the witness order.
func upd(m map[uint64]prop, a uint64, p prop) {
	if q, ok := m[a]; !ok || betterProp(p, q) {
		m[a] = p
	}
}

// offer offers a received proposal: it replaces only a larger b, so of
// equal b's the first offered stays.
func offer(m map[uint64]prop, a uint64, p prop) {
	if q, ok := m[a]; !ok || p.b < q.b {
		m[a] = p
	}
}

// mapUF is the oracle's union-find over 64-bit labels: a label with no
// entry is a root, paths halve on the way up, and the larger root is
// linked under the smaller, so every root is its set's least label.
type mapUF map[uint64]uint64

func (u mapUF) find(x uint64) uint64 {
	for {
		p, ok := u[x]
		if !ok {
			return x
		}
		g, ok := u[p]
		if !ok {
			return p
		}
		u[x] = g
		x = g
	}
}

func (u mapUF) union(a, b uint64) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	u[max(ra, rb)] = min(ra, rb)
}

// contractProps is the offer rule of cc and cc-flat: the entries [a, b]
// join a and b in one union-find, and every label m holds a proposal for
// offers the least label of its set instead of its least neighbor.
func contractProps(m map[uint64]prop, entries [][2]uint64) {
	u := mapUF{}
	for _, e := range entries {
		u.union(e[0], e[1])
	}
	for a, p := range m {
		p.b = u.find(a)
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
	// where combining pays, and answer runs it back down.
	steps   []place.UpStep
	witness bool
	// contract offers each label the least label of its locally known
	// component (contractProps) at holders and combiners; otherwise a label
	// offers its least neighbor.
	contract bool

	active  [][]mapWorkEdge     // contracted edges held locally
	labelOf []map[uint64]uint64 // home state: vertex -> current label
	alive   []map[uint64]bool   // home state: labels owned here, still alive
	forest  [][]Edge            // witness edges per holder (witness mode)

	// Per-phase scratch, reset each phase.
	best   []map[uint64]prop   // home state: min proposal per label
	parent []map[uint64]uint64 // home state: unresolved jump pointers
	rootOf []map[uint64]uint64 // home state: resolved roots, a -> root
}

// round executes one planned exchange, named label as the protocol names
// the same step, with fn planning each compute node's sends.
func (pr *mapProto) round(label string, fn func(i int, out *netsim.Outbox)) {
	x := pr.e.Exchange()
	x.Label(label)
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

// encodeProps serializes a proposal map in ascending label order and
// returns the proposals in the same order. Each label offers min(a, b) —
// a least neighbor above the label cannot hook, so the label offers itself
// — and is followed by that b only where it differs from the entry
// before's: [a1, b1, a2, a3, b3, …].
func encodeProps(m map[uint64]prop) ([]uint64, []prop) {
	out := make([]uint64, 0, 2*len(m))
	ps := make([]prop, 0, len(m))
	var last uint64
	for k, a := range sortedKeys(m) {
		out = append(out, a)
		if b := min(a, m[a].b); k == 0 || b != last {
			out = append(out, b)
			last = b
		}
		ps = append(ps, m[a])
	}
	return out, ps
}

// decodeProps reads a proposal message back into its entries [a, b]: a
// word not greater than the label before it is that label's b, any other
// word the next label, which keeps the b before it.
func decodeProps(keys []uint64) [][2]uint64 {
	var out [][2]uint64
	var b uint64
	for k := 0; k < len(keys); k++ {
		a := keys[k]
		if k+1 < len(keys) && keys[k+1] <= a {
			k++
			b = keys[k]
		}
		out = append(out, [2]uint64{a, b})
	}
	return out
}

// receiveProps records a received proposal message and offers its entries
// into dst, each with its won flag in the recorded message as its source.
// It returns the record and the entries.
func receiveProps(dst map[uint64]prop, from int, keys []uint64) (sweepMsg, [][2]uint64) {
	es := decodeProps(keys)
	g := sweepMsg{peer: from, props: true, won: make([]bool, len(es))}
	for k, e := range es {
		g.labels = append(g.labels, e[0])
		offer(dst, e[0], prop{b: e[1], won: &g.won[k]})
	}
	return g, es
}

// sweepMsg is one answered message of a propose sweep: its peer (the
// destination at the sender, the sender at the receiver), its labels in the
// order sent, and whether it carried proposals rather than need entries. A
// sent proposal message keeps the source of each entry (src), a received
// one the flags of the entries whose proposal won (won).
type sweepMsg struct {
	peer   int
	labels []uint64
	props  bool
	src    []prop
	won    []bool
}

// sweep is what one propose sweep leaves for its answer: per stage (the
// up-steps, then the homes) and per node, the answered messages the node
// sent and those it received, in order.
type sweep struct{ sent, got [][][]sweepMsg }

// propose turns every active edge into min-neighbor proposals for both
// endpoint labels, min-combines them locally (and per block per level
// under a combining schedule), delivers them to the label homes, and
// min-merges them into pr.best. Each node's entries that no proposal it
// holds names travel as 1-word entries beside the proposals, unioned per
// block like them and dropped by a combiner once it holds a proposal for
// them: with first (the first sweep of a run) they are the vertices, which
// their homes enroll (homes enroll every label a proposal names, too);
// later they are the labels of homed vertices, whose roots are asked for.
// Every proposal message and every later need message is answered by
// answer, against the sweep returned here.
func (pr *mapProto) propose(entries []map[uint64]bool, first bool) sweep {
	entry, entryUp := tagNeed, tagNeedUp
	if first {
		entry, entryUp = tagVertex, tagVertexUp
	}
	sw := sweep{sent: make([][][]sweepMsg, len(pr.steps)+1), got: make([][][]sweepMsg, len(pr.steps)+1)}
	for s := range sw.sent {
		sw.sent[s] = make([][]sweepMsg, len(pr.nodes))
		sw.got[s] = make([][]sweepMsg, len(pr.nodes))
	}
	local := make([]map[uint64]prop, len(pr.nodes))
	lone := make([]map[uint64]bool, len(pr.nodes))
	for i := range pr.nodes {
		m := make(map[uint64]prop, 2*len(pr.active[i]))
		var held [][2]uint64
		for _, ed := range pr.active[i] {
			w := Edge{U: ed.wu, V: ed.wv}
			upd(m, ed.a, prop{b: ed.b, w: w})
			upd(m, ed.b, prop{b: ed.a, w: w})
			held = append(held, [2]uint64{ed.a, ed.b})
		}
		if pr.contract {
			contractProps(m, held)
		}
		local[i] = m
		lone[i] = make(map[uint64]bool)
		for x := range entries[i] {
			if _, ok := m[x]; !ok {
				lone[i][x] = true
			}
		}
	}
	for s, st := range pr.steps {
		st := st
		pr.round("propose", func(i int, out *netsim.Outbox) {
			if st.Target[i] == i {
				return
			}
			if len(local[i]) > 0 {
				keys, src := encodeProps(local[i])
				out.Send(pr.nodes[st.Target[i]], tagProposeUp, keys)
				sw.sent[s][i] = append(sw.sent[s][i], sweepMsg{peer: st.Target[i], labels: sortedKeys(local[i]), props: true, src: src})
			}
			if batch := sortedKeys(lone[i]); len(batch) > 0 {
				out.Send(pr.nodes[st.Target[i]], entryUp, batch)
				if !first {
					sw.sent[s][i] = append(sw.sent[s][i], sweepMsg{peer: st.Target[i], labels: batch})
				}
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
			// Scratch maps, merged in place: the carrier's own entries are
			// offered first, then its members' in inbox order.
			merged[i], mergedLone[i] = local[i], lone[i]
			var offered [][2]uint64
			for a, p := range local[i] {
				offered = append(offered, [2]uint64{a, p.b})
			}
			ib := pr.e.Inbox(v)
			for mi := 0; mi < ib.Len(); mi++ {
				m := ib.At(mi)
				// The answer reads these labels rounds later, after the inbox
				// pool behind m.Keys has been recycled: receiveProps and
				// slices.Clone copy them.
				switch m.Tag {
				case tagProposeUp:
					g, es := receiveProps(merged[i], pr.idx[m.From], m.Keys)
					sw.got[s][i] = append(sw.got[s][i], g)
					offered = append(offered, es...)
				case tagNeedUp:
					sw.got[s][i] = append(sw.got[s][i], sweepMsg{peer: pr.idx[m.From], labels: slices.Clone(m.Keys)})
					fallthrough
				case tagVertexUp:
					for _, x := range m.Keys {
						mergedLone[i][x] = true
					}
				}
			}
			if pr.contract {
				contractProps(merged[i], offered)
			}
			for x := range mergedLone[i] {
				if _, ok := merged[i][x]; ok {
					delete(mergedLone[i], x)
				}
			}
		}
		local, lone = merged, mergedLone
	}
	home := len(pr.steps)
	pr.round("propose", func(i int, out *netsim.Outbox) {
		byHome := make(map[int]map[uint64]prop)
		for a, p := range local[i] {
			h := pr.home(a)
			if byHome[h] == nil {
				byHome[h] = make(map[uint64]prop)
			}
			byHome[h][a] = p
		}
		groups := make(map[int][]uint64)
		for _, h := range slices.Sorted(maps.Keys(byHome)) {
			keys, src := encodeProps(byHome[h])
			groups[h] = keys
			sw.sent[home][i] = append(sw.sent[home][i], sweepMsg{peer: h, labels: sortedKeys(byHome[h]), props: true, src: src})
		}
		pr.sendByHome(out, tagPropose, groups)
		groups = make(map[int][]uint64)
		for _, x := range sortedKeys(lone[i]) {
			groups[pr.home(x)] = append(groups[pr.home(x)], x)
		}
		pr.sendByHome(out, entry, groups)
		for h := range pr.nodes {
			if batch := groups[h]; len(batch) > 0 && !first {
				sw.sent[home][i] = append(sw.sent[home][i], sweepMsg{peer: h, labels: batch})
			}
		}
	})
	for i, v := range pr.nodes {
		pr.best[i] = make(map[uint64]prop)
		ib := pr.e.Inbox(v)
		for mi := 0; mi < ib.Len(); mi++ {
			m := ib.At(mi)
			switch m.Tag {
			case tagPropose:
				g, _ := receiveProps(pr.best[i], pr.idx[m.From], m.Keys)
				sw.got[home][i] = append(sw.got[home][i], g)
			case tagNeed:
				sw.got[home][i] = append(sw.got[home][i], sweepMsg{peer: pr.idx[m.From], labels: slices.Clone(m.Keys)})
			case tagVertex:
				for _, x := range m.Keys {
					pr.enroll(i, x)
				}
			}
		}
		if first {
			for a := range pr.best[i] {
				pr.enroll(i, a)
			}
		}
	}
	return sw
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
// a smaller neighbor label hook onto it, and the received entry the home
// took the proposal from is flagged as won; the rest are roots. Returns the
// number of hooked labels.
func (pr *mapProto) hook() int {
	unresolved := 0
	for i := range pr.nodes {
		pr.parent[i] = make(map[uint64]uint64)
		pr.rootOf[i] = make(map[uint64]uint64)
		for _, a := range sortedKeys(pr.alive[i]) {
			if p, ok := pr.best[i][a]; ok && p.b < a {
				pr.parent[i][a] = p.b
				*p.won = true
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
// iterations. A reply answers by position: a resolved bitmap, then one
// value per query, read against the query list the asker kept.
func (pr *mapProto) jump(unresolved int) error {
	for iter := 0; unresolved > 0; iter++ {
		if iter == maxJumpIters {
			return fmt.Errorf("graph: pointer jumping did not converge after %d iterations", maxJumpIters)
		}
		// Queries: one per distinct pointer target per node.
		waiting := make([]map[uint64][]uint64, len(pr.nodes))
		asked := make([]map[int][]uint64, len(pr.nodes))
		pr.round("jump", func(i int, out *netsim.Outbox) {
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
			asked[i] = groups
			pr.sendByHome(out, tagJumpQ, groups)
		})
		// Replies: bit k set and value k the root when the k-th target is
		// resolved, bit k clear and value k its pointer otherwise.
		failed := make([]error, len(pr.nodes))
		pr.round("jump", func(j int, out *netsim.Outbox) {
			ib := pr.e.Inbox(pr.nodes[j])
			for mi := 0; mi < ib.Len(); mi++ {
				m := ib.At(mi)
				if m.Tag != tagJumpQ {
					continue
				}
				words := (len(m.Keys) + 63) / 64
				reply := make([]uint64, words+len(m.Keys))
				for k, q := range m.Keys {
					if r, ok := pr.rootOf[j][q]; ok {
						reply[k/64] |= 1 << (k % 64)
						reply[words+k] = r
					} else if pq, ok := pr.parent[j][q]; ok {
						reply[words+k] = pq
					} else {
						failed[j] = fmt.Errorf("%w: label %d", ErrDanglingPointer, q)
						return
					}
				}
				out.Send(m.From, tagJumpA, reply)
			}
		})
		if err := errors.Join(failed...); err != nil {
			return err
		}
		unresolved = 0
		for i, v := range pr.nodes {
			ib := pr.e.Inbox(v)
			for mi := 0; mi < ib.Len(); mi++ {
				m := ib.At(mi)
				if m.Tag != tagJumpA {
					continue
				}
				qs := asked[i][pr.idx[m.From]]
				words := (len(qs) + 63) / 64
				if len(m.Keys) != words+len(qs) {
					return fmt.Errorf("oracle: jump reply of %d words to %d queries", len(m.Keys), len(qs))
				}
				for k, q := range qs {
					val := m.Keys[words+k]
					if m.Keys[k/64]>>(k%64)&1 == 1 {
						for _, a := range waiting[i][q] {
							pr.rootOf[i][a] = val
							delete(pr.parent[i], a)
						}
					} else {
						for _, a := range waiting[i][q] {
							pr.parent[i][a] = val
						}
					}
				}
			}
			unresolved += len(pr.parent[i])
		}
	}
	return nil
}

// answer publishes the phase roots back along the propose sweep sw, one
// round per stage, homes first, then the combiners, coarsest level first:
// every receiver answers each message it recorded with the root of every
// label, in the order sent and on the int path's wire (answerRoots) — a home from its own resolved roots, a combiner from
// the roots it learned a stage earlier — and every sender reads the answers
// of each peer, in order, against the messages it sent that peer. In
// witness mode the answer to a proposal message leads with the bitmap of
// its won flags, and its reader passes each set bit to the source of the
// entry it sent: the won flag of the entry it took the proposal from, which
// it answers in a later round, or its own witness edge, which joins the
// forest. It returns the per-node label → root maps so learned: the
// endpoint labels of each node's active edges, and in later phases its
// homed vertices' labels (in the first every homed vertex is its own label
// and its home resolved the root itself).
func (pr *mapProto) answer(sw sweep) ([]map[uint64]uint64, error) {
	learned := make([]map[uint64]uint64, len(pr.nodes))
	for i := range learned {
		learned[i] = make(map[uint64]uint64)
	}
	failed := make([]error, len(pr.nodes))
	for s := len(pr.steps); s >= 0; s-- {
		pr.round("answer", func(j int, out *netsim.Outbox) {
			roots := learned[j]
			if s == len(pr.steps) {
				roots = pr.rootOf[j]
			}
			for _, m := range sw.got[s][j] {
				var won []bool
				if m.props && pr.witness {
					won = m.won
				}
				if err := answerRoots(out, pr.nodes[m.peer], m.labels, won, roots); err != nil {
					failed[j] = err
				}
			}
		})
		if err := errors.Join(failed...); err != nil {
			return nil, err
		}
		for i, v := range pr.nodes {
			pending := make(map[int][]sweepMsg)
			for _, m := range sw.sent[s][i] {
				pending[m.peer] = append(pending[m.peer], m)
			}
			ib := pr.e.Inbox(v)
			for mi := 0; mi < ib.Len(); mi++ {
				m := ib.At(mi)
				if m.Tag != tagRoots {
					continue
				}
				from := pr.idx[m.From]
				q := pending[from]
				if len(q) == 0 {
					return nil, fmt.Errorf("oracle: node %d answered node %d, which sent it nothing to answer", from, i)
				}
				asked := q[0]
				pending[from] = q[1:]
				words := 0
				if asked.props && pr.witness {
					words = (len(asked.labels) + 63) / 64
				}
				var roots []uint64
				ok := len(m.Keys) >= words
				if ok {
					roots, ok = readRoots(m.Keys[words:], len(asked.labels), nil)
				}
				if !ok {
					return nil, fmt.Errorf("oracle: %d words do not answer %d labels", len(m.Keys), len(asked.labels))
				}
				for k, a := range asked.labels {
					learned[i][a] = roots[k]
					if words == 0 || m.Keys[k/64]>>(k%64)&1 == 0 {
						continue
					}
					if src := asked.src[k]; src.won != nil {
						*src.won = true
					} else {
						pr.forest[i] = append(pr.forest[i], src.w)
					}
				}
			}
			for peer, q := range pending {
				if len(q) > 0 {
					return nil, fmt.Errorf("oracle: node %d left %d messages of node %d unanswered", peer, len(q), i)
				}
			}
		}
	}
	return learned, nil
}

// answerRoots answers one query: the bitmap of the won flags when won is
// non-nil, then the root of every asked label, in the order asked, on the
// int path's wire (wireRoots).
func answerRoots(out *netsim.Outbox, to topology.NodeID, asked []uint64, won []bool, roots map[uint64]uint64) error {
	words := 0
	if won != nil {
		words = (len(asked) + 63) / 64
	}
	rs := make([]uint64, len(asked))
	for k, a := range asked {
		r, ok := roots[a]
		if !ok {
			return fmt.Errorf("%w: label %d", ErrUnresolvedLabel, a)
		}
		rs[k] = r
	}
	rc := countRoots(rs)
	reply := make([]uint64, words+rootWords(len(rs), rc))
	wireRoots(reply[words:], len(rs), rc, func(k int) uint64 { return rs[k] })
	for k := range asked {
		if won != nil && won[k] {
			reply[k/64] |= 1 << (k % 64)
		}
	}
	out.Send(to, tagRoots, reply)
	return nil
}

// countRoots counts a root list as sendRoots does, for rootWords and
// wireRoots.
func countRoots(rs []uint64) *rootCount {
	var rc rootCount
	for _, r := range rs {
		rc.add(r)
	}
	return &rc
}

// relabel rewrites every active edge onto the phase roots, dropping edges
// that became internal, updates the homed vertex labels (in the first
// phase from the home's own roots, which answer did not send), and
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
// per-node hash maps and per-round proposal maps, over the original 64-bit
// vertex ids. It produces byte-identical cost reports and checksums to
// CC/CCFlat/SpanningForest and lives in a test file as the equivalence
// oracle of the property tests and the baseline leg of the contraction
// benchmarks. Unlike the int-indexed path, which reads roots from its
// global root arrays, it learns every root, pointer and won flag from the
// wire: each node keeps the query lists it sends and decodes the positional
// replies against them, bitmaps included. With contract, holders and
// combiners offer what cc and cc-flat offer, the least label of each
// label's locally known component; without it, every label offers its
// least neighbor, spanforest's rule.
func runMaps(tr *topology.Tree, edges Placement, seed uint64, aware, witness, contract bool, opts []netsim.Option) (*Result, error) {
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
		t:        tr,
		e:        netsim.NewEngine(tr, opts...),
		nodes:    nodes,
		idx:      idx,
		home:     chooser.Choose,
		steps:    steps,
		witness:  witness,
		contract: contract,
		active:   make([][]mapWorkEdge, p),
		labelOf:  make([]map[uint64]uint64, p),
		alive:    make([]map[uint64]bool, p),
		best:     make([]map[uint64]prop, p),
		parent:   make([]map[uint64]uint64, p),
		rootOf:   make([]map[uint64]uint64, p),
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
	// two vertices it is sent alone, and is no phase. Later sweeps ask for
	// the roots of the homed vertices' labels.
	phases := 0
	if pr.totalActive() == 0 {
		pr.propose(verts, true)
	}
	for pr.totalActive() > 0 {
		if phases == maxPhases {
			return nil, fmt.Errorf("graph: contraction did not converge after %d phases", maxPhases)
		}
		phases++
		first := phases == 1
		if !first {
			for i := range verts {
				verts[i] = make(map[uint64]bool, len(pr.labelOf[i]))
				for _, l := range pr.labelOf[i] {
					verts[i][l] = true
				}
			}
		}
		sw := pr.propose(verts, first)
		if err := pr.jump(pr.hook()); err != nil {
			return nil, err
		}
		rmap, err := pr.answer(sw)
		if err != nil {
			return nil, err
		}
		if err := pr.relabel(rmap, first); err != nil {
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
