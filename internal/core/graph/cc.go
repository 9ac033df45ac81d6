package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"topompc/internal/core/place"
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// maxPhases bounds the contraction loop defensively: every offer is at most
// the least neighbor label, so a label with a smaller neighbor always hooks
// and min-hooking leaves an independent set of labels per phase (at least
// halving); 64 phases outrun any uint64-labeled input.
const maxPhases = 64

// maxJumpIters bounds one phase's pointer-jumping loop; path halving
// converges in O(log chain) iterations and hooking chains are at most the
// label count, so 128 is unreachable without a bug.
const maxJumpIters = 128

// The named failures of the contraction's answer rounds. Neither occurs on
// a correct run: every label a node proposes for or asks about is alive, so
// once pointer jumping finishes it has a root, and every pointer names a
// label that hooked or stayed a root this phase. They exist so that a broken
// state stops the run where it shows, not rounds later in relabel.
var (
	// ErrUnresolvedLabel is returned when a root answer is due for a label
	// that has no root this phase.
	ErrUnresolvedLabel = errors.New("graph: asked label has no phase root")
	// ErrDanglingPointer is returned when a pointer-jump query names a
	// label with neither a root nor a parent this phase.
	ErrDanglingPointer = errors.New("graph: jump target has neither a root nor a parent")
)

// CC computes connected components with the topology-aware protocol:
// capacity-weighted vertex homes and per-cut combining of label updates,
// or the one-round gather at the cheapest node once the contraction's
// phase 1 costs as much (gather.go).
func CC(t *topology.Tree, edges Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return contract(t, edges, seed, variant{aware: true, gather: true}, opts)
}

// CCFlat is the topology-oblivious baseline: uniform vertex homes and
// direct update delivery, as on a flat network.
func CCFlat(t *topology.Tree, edges Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return contract(t, edges, seed, variant{}, opts)
}

// SpanningForest runs the topology-aware protocol with witness tracking:
// every hooking records the original graph edge that joined the two
// components, and the union of witnesses is a spanning forest. Like CC it
// gathers instead once the contraction's phase 1 costs as much, and then
// the witnesses are the gathered edges that joined two components.
func SpanningForest(t *topology.Tree, edges Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return contract(t, edges, seed, variant{aware: true, witness: true, gather: true}, opts)
}

// CCFast computes connected components with budgeted graph exponentiation
// (ccfast.go) on capacity-weighted homes. Same inputs and Result contract
// as CC. Only the benchmark calls it (see the package doc).
func CCFast(t *topology.Tree, edges Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return contract(t, edges, seed, variant{aware: true, expand: true}, opts)
}

// variant is what one connectivity run chooses; everything else is the one
// contraction loop below.
type variant struct {
	// aware homes vertices by bandwidth capacity and combines the label
	// exchanges per cut; otherwise homes are uniform and delivery direct.
	aware bool
	// witness records the graph edge of every hooking. Each label offers
	// its least neighbor, which one edge joins to it, or itself where that
	// is larger (it cannot hook, and the wire needs b ≤ a); proposals
	// travel on cc's wire (wireProps): a holder keeps the edge behind each
	// of its minima, every combiner and home remembers which entry its
	// minimum came from, and the answer to a proposal message leads with a
	// won bitmap that passes each hooking back down that chain to the
	// holder of its edge.
	// Otherwise holders and combiners contract what they know: each label
	// offers the least label of its locally known component, which may lie
	// several edges away.
	witness bool
	// gather weighs the contraction against a one-round gather of every
	// edge at one node (gather.go) during phase 1, and runs the gather once
	// phase 1 costs at least as much.
	gather bool
	// expand runs expanding phases (ccfast.go): a phase learns its proposals
	// from one adjacency round and capped doubling rounds, and its roots
	// are pushed to the nodes that round subscribed. Otherwise phases are
	// Borůvka's: proposals combined per cut, and the roots answered back
	// down the same schedule, one per label proposed for.
	expand bool
}

// contract is the connectivity driver: every phase learns, for each alive
// label, the smallest label it can hook onto, hooks, resolves the hooking
// forests to their roots by pointer jumping, publishes the roots to the
// nodes holding edges or vertices under those labels, and relabels — until
// no edge joins two labels. The two phase kinds differ only in how proposals
// are learned and roots published; a Borůvka phase is an expanding phase
// with a doubling budget of zero, delivered along the combining schedule,
// whose propose sweep is also the root query: once pointer jumping ends,
// every message of the sweep is answered the way it came, so a phase is
// (L+1) + 2j + (L+1) rounds for L combining levels and j jump iterations.
// In both kinds phase 1's first sweep also registers the vertices: a home
// enrolls a label when the first message naming it arrives, so no round is
// spent on registration alone.
//
// With v.gather the contraction is weighed against the gather (gather.go):
// phase 1 runs as a netsim.Probe against the gather's price, asked before
// each of its steps — propose sweep, jump, answer, relabel — and before its
// first round. The contraction costs at least its phase 1, so once that
// reaches the gather's price the gather is no dearer than the whole
// contraction: the probe's rounds are dropped and the gather runs. Otherwise
// the probe is kept and the contraction goes on, having done nothing extra.
func contract(tr *topology.Tree, edges Placement, seed uint64, v variant, opts []netsim.Option) (*Result, error) {
	pr, err := newProto(tr, edges, seed, v, opts)
	if err != nil {
		return nil, err
	}
	// What the result calls this run, and the metrics its phases feed.
	strategy, counter := "flat", "graph.cc.phases"
	switch {
	case v.expand:
		strategy, counter = "fast", "graph.ccfast.phases"
	case len(pr.steps) > 0:
		strategy = fmt.Sprintf("aware+combine×%d", len(pr.steps))
	case v.aware:
		strategy = "aware"
	}
	mx := pr.e.Metrics()
	mTrims := mx.Counter("graph.cc.scratch_trims")
	var probe *netsim.Probe
	var gp place.GatherPlan
	if v.gather {
		gp = priceGather(tr, edges)
		probe = pr.e.Probe(strategy, pr.gatherCandidate(gp, edges), gp.Cost, gp.Bottleneck)
	}
	// beaten asks the open probe; once it is beaten the gather has run.
	beaten := func() bool { return probe != nil && probe.Beaten() }
	if beaten() {
		return pr.gathered(gp.Node, edges), nil
	}
	// Per phase, a Borůvka run observes its active edges and an expanding
	// run counts its doubling rounds.
	var observe func(act int)
	if v.expand {
		// The adjacency round of phase 1 registers the vertices.
		pr.fs = newFastState(len(pr.ids), len(pr.nodes))
		mDbl := mx.Counter("graph.ccfast.doubling_rounds")
		observe = func(int) { mDbl.Add(int64(pr.fs.dblRounds)) }
	} else {
		// Phase 1's propose sweep registers the vertices.
		pr.collectFirst()
		mActive := mx.Histogram("graph.cc.active_edges")
		observe = func(act int) { mActive.Observe(float64(act)) }
	}
	mPhases := mx.Counter(counter)

	phases := 0
	for {
		act := pr.totalActive()
		if act == 0 && (phases > 0 || !v.expand) {
			// On an input with no edge between two vertices, a Borůvka run
			// sends phase 1's propose sweep alone — it carries only vertex
			// entries, and registers them — and counts no phase. An
			// expanding run's first phase runs in full, so that its
			// adjacency round registers every vertex.
			if phases == 0 {
				pr.propose()
				if beaten() {
					return pr.gathered(gp.Node, edges), nil
				}
			}
			break
		}
		if phases == maxPhases {
			return nil, fmt.Errorf("graph: contraction did not converge after %d phases", phases)
		}
		phases++
		pr.phase = int32(phases)
		if v.expand {
			pr.expand()
		} else {
			pr.propose()
		}
		if beaten() {
			return pr.gathered(gp.Node, edges), nil
		}
		if err := pr.jump(pr.hook()); err != nil {
			return nil, err
		}
		if beaten() {
			return pr.gathered(gp.Node, edges), nil
		}
		if v.expand {
			pr.pushRoots()
		} else if err := pr.answer(); err != nil {
			return nil, err
		}
		if beaten() {
			return pr.gathered(gp.Node, edges), nil
		}
		if probe != nil {
			// Relabel sends nothing: phase 1 is priced whole.
			probe.Keep()
			probe = nil
		}
		trims, err := pr.relabel()
		if err != nil {
			return nil, err
		}
		mTrims.Add(trims)
		mPhases.Inc()
		observe(act)
	}
	if probe != nil {
		probe.Keep()
	}
	return pr.assemble(phases, strategy), nil
}

// The contraction below is the int-indexed data plane: one renumbering
// pass maps the input's arbitrary uint64 vertex ids onto dense indices
// (ascending, so index order equals id order and every min-comparison is
// preserved), and from then on all home state lives in flat arrays indexed
// by vertex/label index — maps appear only at the API boundary when the
// Result is assembled. Per-phase state (best proposal, jump pointer,
// resolved root) is validity-stamped with the phase counter instead of
// being cleared, batching groups by destination home with a stable radix
// on the home key instead of hash maps or packed sorts, and outgoing
// payloads are carved from per-node arenas so steady-state phases allocate
// almost nothing.
//
// Index lists — phase 1's vertex entries, later phases' need entries, jump
// queries, the labels a collection touched — are sets over the dense
// universe [0, nV), and sortIndices orders them ascending and distinct: a
// list at least as long as a bitmap over the universe has words (nV/64) is
// marked into the bitmap and read back word by word, a shorter one takes an
// LSD radix that skips constant byte lanes. On a dense graph a home's label
// list is many times the bitmap's length, so the local step is linear work
// with no sort.
//
// Proposals are combined in linear work in both modes. The relabel walk
// folds every active edge into stamped per-label state, orders the distinct
// labels it touched with sortIndices, and builds the next phase's proposal
// list in that order; a combining carrier folds its own list and its
// members' into a fresh epoch the same way. In witness mode the state is
// the per-label minimum — keyed (b, wu, wv), the betterProp order, at a
// holder, which keeps the winning edge beside the entry, and on b alone at
// a carrier, the first-offered entry winning a tie (its own list first,
// then its members in inbox order). Otherwise it is a union-find with path
// halving over the stamped parent array up, the larger root linked under
// the smaller: a holder joins the endpoints of its active edges, a carrier
// the a and b of every entry it holds or receives, and each label that led
// an entry offers its set's root, the least label the node knows to be
// connected to it. The need entries dedup against the same stamps. No
// comparator sort, no map, and no sort of candidates rather than labels,
// runs on the data path.
//
// The wire is the same in both modes: a proposal message lists its entries
// [a, b] label-ascending, every b ≤ a, and writes an entry's b only where it
// differs from the entry before's — [a1, b1, a2, a3, b3, …] (wireProps) —
// so a run of labels offered one root, which local contraction makes
// common, costs one word per label after its first. A word not greater
// than the label before it is that label's b, so the receiver reads the
// entries back (readProps) and answers them by entry position. In witness
// mode every entry a node holds also names its source — its own witness
// edge, or the askBuf position of the member entry a combiner took it from
// — and a home the askBuf position of the first entry that offered the
// winning b (bestPos).
// The answer to a proposal message is then a won bitmap of ⌈n/64⌉ words
// before its n roots: a home sets the bit of the entry it recorded for each
// label that hooked, each node passes every bit it receives to the one
// source of that entry, and the holder a bit reaches records its witness
// edge in the forest (takeWins). Need entries and every non-witness answer
// carry roots alone.
//
// Messages carry indices where the map-based path (runMaps, the test
// oracle) carries ids; nothing else differs. The renumbering is
// order-preserving and homes are still hashed from the original ids, so
// every message has the same destination, tag, and length on both paths —
// cost reports are byte-identical, which the property tests pin. Replies
// answer by position: a root answer is one root per label of the proposal
// or need message it answers and a jump reply a resolved bitmap plus one
// value per query, both in the order of the message they answer, which the
// asker still holds. Nothing in a reply depends on how wide an id is, so
// the oracle speaks the same wire over the original 64-bit ids.

// workEdge is one active contracted edge: current endpoint label indices
// plus the original witness endpoint indices.
type workEdge struct{ a, b, wu, wv int32 }

// propPair is a witness-mode least-neighbor proposal: k1 = a<<32|b, the
// entry the wire carries, and k2 its source — the holder's own witness
// edge wu<<32|wv (top bit clear; at a holder, within one label a the
// betterProp order (b, wu, wv) is ascending (k1, k2)), or fromAsk|p, the
// position p in the node's askBuf of the member entry a combiner took it
// from.
//
// Non-witness proposals skip the struct entirely: they are bare k1 keys.
type propPair struct{ k1, k2 uint64 }

// fromAsk marks a propPair source that is an askBuf position.
const fromAsk = 1 << 63

func pairKey(p propPair) uint64 { return p.k1 }
func bareKey(k uint64) uint64   { return k }

// sortIndices orders a list of indices from [0, nV) ascending and distinct.
// A list at least as long as a bitmap over the universe has words goes
// through bitmapDedup on the *bm scratch, in the list's own array; a
// shorter one is radix-sorted through the *tmp scratch and compacted. Both
// give the same list, so the choice follows from the sizes alone.
func sortIndices(s []int32, nV int, bm *[]uint64, tmp *[]int32) []int32 {
	if words := (nV + 63) >> 6; len(s) >= words {
		if len(*bm) < words {
			*bm = make([]uint64, words)
		}
		return bitmapDedup(s, (*bm)[:words])
	}
	s, *tmp = par.SerialSort(s, *tmp)
	return slices.Compact(s)
}

// bitmapDedup marks every value of s in the zeroed bitmap bm, then scans
// its words lowest bit first, writing the values back into s ascending and
// distinct and clearing each word it reads, so bm is zero again on return.
// O(len(s) + len(bm)) work, no comparisons.
func bitmapDedup(s []int32, bm []uint64) []int32 {
	for _, x := range s {
		bm[x>>6] |= 1 << (x & 63)
	}
	n := 0
	for w, b := range bm {
		if b == 0 {
			continue
		}
		bm[w] = 0
		for base := int32(w) << 6; b != 0; b &= b - 1 {
			s[n] = base + int32(bits.TrailingZeros64(b))
			n++
		}
	}
	return s[:n]
}

// sortByHome stably reorders els ascending by home index (at most
// numHomes), in place: small lists use a stable insertion sort, the rest
// an LSD byte radix on the home key (constant lanes skipped) through the
// *tmp scratch, copied back if the final pass lands there. Stability
// preserves the input's label order within each home, which is exactly
// the (home asc, label asc) wire order the map path produced. The cost is
// O(passes·n) — independent of the node count, unlike counting buckets.
func sortByHome[T any](els []T, tmp *[]T, home func(T) int32, numHomes int) {
	if len(els) < 48 {
		for i := 1; i < len(els); i++ {
			el := els[i]
			h := home(el)
			j := i
			for j > 0 && home(els[j-1]) > h {
				els[j] = els[j-1]
				j--
			}
			els[j] = el
		}
		return
	}
	passes := 1
	for v := numHomes - 1; v >= 256; v >>= 8 {
		passes++
	}
	if cap(*tmp) < len(els) {
		*tmp = make([]T, len(els))
	}
	var hist [4][256]int32
	for _, el := range els {
		h := uint32(home(el))
		for b := 0; b < passes; b++ {
			hist[b][(h>>(8*uint(b)))&0xff]++
		}
	}
	src, dst := els, (*tmp)[:len(els)]
	for pass := 0; pass < passes; pass++ {
		sh := uint(pass) * 8
		h := &hist[pass]
		if int(h[(uint32(home(src[0]))>>sh)&0xff]) == len(src) {
			continue
		}
		var off [256]int32
		var sum int32
		for b := 0; b < 256; b++ {
			off[b] = sum
			sum += h[b]
		}
		for _, el := range src {
			b := (uint32(home(el)) >> sh) & 0xff
			dst[off[b]] = el
			off[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &els[0] {
		copy(els, src)
	}
}

// askedList records, at a combiner or a home, one message of the propose
// sweep that is answered once pointer jumping ends — a proposal message, or
// a later phase's need entries: the sender, the sweep stage it arrived at
// (an up-step's index, or len(steps) at the homes), whether it carried
// proposals, and the message's labels in the order sent, as a range in the
// receiver's askBuf (copied, because inbox payloads are arena-backed and
// only valid for one round).
type askedList struct {
	from          topology.NodeID
	stage, lo, hi int32
	props         bool
}

// nodeScratch is the per-compute-node reusable scratch. Entries are only
// touched by their own node's planning callback or by the pool shard that
// owns the node's home index, so neither concurrent Plan nor the parallel
// receipt loops ever race.
type nodeScratch struct {
	pairs   []propPair  // witness-mode proposal minima, one per label, ascending
	sent    []propPair  // witness: the list this node forwarded up this phase, kept for its won bits
	k1s     []uint64    // non-witness proposal minima, one per label, ascending
	k1tmp   []uint64    // radix scratch
	need    []int32     // labels no proposal names, ascending: vertex or need entries / jump query scratch
	ndtmp   []int32     // radix scratch
	bm      []uint64    // dedup bitmap over the vertex indices, kept zero
	askBuf  []int32     // copied labels of the answered propose-sweep messages
	asked   []askedList // the propose-sweep messages to answer, by stage
	won     []uint64    // witness: bitmap over askBuf, the proposal entries that won
	emitTmp []int32     // emit grouping: home-radix scratch
	ptmp    []propPair  // emit grouping: home-radix scratch (witness)
}

// collectScratch is one pool shard's stamped combine arrays for the
// relabel-time collection walks and the propose up-receipt. Each shard owns
// a private copy, so homes processed concurrently never share stamps; a
// minimum or a set's least label does not depend on the order its
// candidates are offered in and the offered labels are sorted before
// anything is built from them, so the per-home results are identical for
// every worker count.
type collectScratch struct {
	dstamp int32
	minAt  []int32  // the epoch's proposal labels
	minB   []int32  // witness mode: the least b offered per label
	minW   []uint64 // witness mode: the minimum's propPair source
	up     []uint64 // otherwise: union-find links, the epoch stamp over the parent
	bs     []int32  // the b's of the proposal message keepAsked read last
	labels []int32  // the labels offered in the current epoch, each once
	ltmp   []int32  // radix scratch of labels
	bm     []uint64 // label bitmap, kept zero
}

// begin opens a fresh validity epoch over nV labels and returns its stamp.
// The arrays are sized lazily: shards that never combine cost nothing.
func (ws *collectScratch) begin(nV int, witness bool) int32 {
	if len(ws.minAt) < nV {
		ws.minAt = make([]int32, nV)
	}
	if witness && len(ws.minB) < nV {
		ws.minB = make([]int32, nV)
		ws.minW = make([]uint64, nV)
	}
	if !witness && len(ws.up) < nV {
		ws.up = make([]uint64, nV)
	}
	ws.labels = ws.labels[:0]
	ws.dstamp++
	return ws.dstamp
}

// key makes a one of epoch st's proposal labels.
func (ws *collectScratch) key(st, a int32) {
	if ws.minAt[a] != st {
		ws.minAt[a] = st
		ws.labels = append(ws.labels, a)
	}
}

// find returns the root of x's set in epoch st, its least label, halving
// the path on the way. A label is linked in the epoch when its up word
// carries the stamp in its high half; the low half is then its parent, and
// a label that is not linked is a root. Stamp and parent share one word,
// so a step of the walk is one load.
func (ws *collectScratch) find(st, x int32) int32 {
	for {
		l := ws.up[x]
		if int32(l>>32) != st {
			return x
		}
		p := int32(uint32(l))
		g := ws.up[p]
		if int32(g>>32) != st {
			return p
		}
		ws.up[x] = g
		x = int32(uint32(g))
	}
}

// union joins the sets of a and b in epoch st, the larger root linked
// under the smaller, and reports whether they were two sets.
func (ws *collectScratch) union(st, a, b int32) bool {
	ra, rb := ws.find(st, a), ws.find(st, b)
	if ra != rb {
		ws.up[max(ra, rb)] = uint64(uint32(st))<<32 | uint64(uint32(min(ra, rb)))
	}
	return ra != rb
}

// join folds the non-witness entry [a, b] into epoch st: a is a proposal
// label, and b is in its set.
func (ws *collectScratch) join(st, a, b int32) {
	ws.key(st, a)
	ws.union(st, a, b)
}

// unclaimed filters xs in place once epoch st's proposals are built, keeping
// each label that no proposal and no earlier entry names, once: a kept
// label is stamped into the epoch.
func (ws *collectScratch) unclaimed(st int32, xs []int32) []int32 {
	out := xs[:0]
	for _, x := range xs {
		if ws.minAt[x] != st {
			ws.minAt[x] = st
			out = append(out, x)
		}
	}
	return out
}

// offerFrom folds a received witness-mode entry a→b into epoch st's minima,
// keeping its source src: of equal b's, the first offered stays.
func (ws *collectScratch) offerFrom(st, a, b int32, src uint64) {
	if ws.minAt[a] != st {
		ws.minAt[a] = st
		ws.labels = append(ws.labels, a)
	} else if b >= ws.minB[a] {
		return
	}
	ws.minB[a] = b
	ws.minW[a] = src
}

// offerW is a holder's offer of its own edges: ties on b break on the
// packed witness edge w = wu<<32|wv, exactly betterProp's (b, wu, wv), and
// the winning edge is the entry's source.
func (ws *collectScratch) offerW(st, a, b int32, w uint64) {
	if ws.minAt[a] != st {
		ws.minAt[a] = st
		ws.minB[a] = b
		ws.minW[a] = w
		ws.labels = append(ws.labels, a)
	} else if mb := ws.minB[a]; b < mb || (b == mb && w < ws.minW[a]) {
		ws.minB[a] = b
		ws.minW[a] = w
	}
}

// trimFloor is the capacity below which scratch trimming never fires;
// small buffers are not worth releasing.
const trimFloor = 4096

// trimmable reports whether a buffer of capacity c backing a live size l
// should shrink. The 4x hysteresis means a steady-state phase never
// thrashs between trim and regrow.
func trimmable(c, l int) bool { return c >= trimFloor && c >= 4*l }

// trimSlice reslices a live buffer to a snug copy once the graph has
// contracted well below its capacity, counting the release into *n.
func trimSlice[T any](s []T, n *int64) []T {
	if trimmable(cap(s), len(s)) {
		*n++
		ns := make([]T, len(s))
		copy(ns, s)
		return ns
	}
	return s
}

// dropSlice releases dead scratch whose capacity dwarfs the expected next
// working size; the next use reallocates to the then-current size.
func dropSlice[T any](s []T, bound int, n *int64) []T {
	if trimmable(cap(s), bound) {
		*n++
		return nil
	}
	return s
}

// trimScratch steps node i's big per-home buffers down with the
// contraction: live arrays (active edges, alive labels, the precollected
// next-phase lists) shrink to snug copies, dead scratch is released
// outright when its capacity is out of proportion to the contracted
// working set. Without this the 10^6-node run pins peak-size buffers — the
// phase-1 working set — to the very end. Returns the number of buffers
// released, feeding the graph.cc.scratch_trims counter.
func (pr *proto) trimScratch(i int) int64 {
	var n int64
	sc := &pr.scr[i]
	pr.active[i] = trimSlice(pr.active[i], &n)
	pr.aliveList[i] = trimSlice(pr.aliveList[i], &n)
	bound := 2*len(pr.active[i]) + len(pr.aliveList[i])
	sc.k1tmp = dropSlice(sc.k1tmp, bound, &n)
	sc.ndtmp = dropSlice(sc.ndtmp, bound, &n)
	sc.askBuf = dropSlice(sc.askBuf, bound, &n)
	sc.emitTmp = dropSlice(sc.emitTmp, bound, &n)
	sc.ptmp = dropSlice(sc.ptmp, bound, &n)
	sc.sent = dropSlice(sc.sent, bound, &n)
	sc.won = dropSlice(sc.won, bound>>6+1, &n)
	pr.hooked[i] = dropSlice(pr.hooked[i], len(pr.aliveList[i]), &n)
	if pr.fs != nil {
		// Expanding phases rebuild both lists from a fresh adjacency round
		// (and never hold witness pairs).
		sc.k1s = dropSlice(sc.k1s, bound, &n)
		sc.need = dropSlice(sc.need, bound, &n)
	} else {
		// A Borůvka phase precollected the next phase's contents into them.
		sc.pairs = trimSlice(sc.pairs, &n)
		sc.k1s = trimSlice(sc.k1s, &n)
		sc.need = trimSlice(sc.need, &n)
	}
	if a := &pr.arena[i]; trimmable(cap(a.buf), bound) {
		n++
		a.buf = nil
	}
	return n
}

// payloadSlab is one node's outgoing-payload arena, reset every round.
// grab carves a fixed-size chunk; the engine copies payloads into the
// receiver inboxes during Execute, so chunks are dead by the time the
// next round resets the slab.
type payloadSlab struct{ buf []uint64 }

func (pa *payloadSlab) grab(n int) []uint64 {
	if len(pa.buf)+n > cap(pa.buf) {
		// The floor is one cache-line pair: on a wide tree most nodes
		// send about eight words a round, and a bigger minimum chunk per
		// node would dwarf what they carve from it.
		pa.buf = make([]uint64, 0, max(2*cap(pa.buf), n, 16))
	}
	lo := len(pa.buf)
	pa.buf = pa.buf[:lo+n]
	return pa.buf[lo : lo+n : lo+n]
}

// shrink hands the tail of chunk, the last one grabbed, back to the slab
// and returns its first n words.
func (pa *payloadSlab) shrink(chunk []uint64, n int) []uint64 {
	pa.buf = pa.buf[:len(pa.buf)-len(chunk)+n]
	return chunk[:n:n]
}

// proto is the driver state of one protocol run. Node-level slices are
// indexed by compute index (position in ComputeNodes); vertex/label arrays
// by renumbered vertex index.
type proto struct {
	e       *netsim.Engine
	nodes   []topology.NodeID
	nodeIdx []int32 // NodeID -> compute index
	steps   []place.UpStep
	witness bool

	ids     []uint64 // sorted distinct vertex ids; position = index
	idToIdx []int32  // direct id -> index table when ids are dense
	homeOf  []int32  // vertex index -> home compute index

	// fs holds the expansion state of expanding phases (nil on a Borůvka
	// run). They skip the relabel-time proposal pre-combining: the next phase
	// rebuilds known-sets from a fresh adjacency round instead.
	fs *fastState

	active [][]workEdge // contracted edges held locally

	// Home state, partitioned by homeOf: entry k is only accessed by the
	// node homeOf[k] is assigned to.
	label      []int32 // registered vertex -> current label index
	registered []bool

	// Per-phase label state, validity tracked by phase stamps. The arrays
	// are written by serial receipt loops and read by planning callbacks,
	// so they double as the simulation's consistent global view: once
	// pointer jumping finishes, rootAt/rootVal answer any label's phase
	// root without a per-node lookup table.
	phase   int32
	bestAt  []int32
	bestB   []int32
	bestPos []int32 // witness: the home's askBuf position of the first entry offering bestB
	parAt   []int32
	parPtr  []int32
	rootAt  []int32
	rootVal []int32

	// Jump-answer snapshot of the current iteration, keyed by hooked label
	// a (home-partitioned, so the parallel read epoch writes each entry
	// from exactly one shard): the answer a's home derives for a's current
	// pointer target from the frozen pre-iteration state — the same values
	// the reply messages on the wire carry.
	jrVal  []int32
	jrRoot []bool

	homedVerts [][]int32 // per home: registered vertices homed here (sorted)
	aliveList  [][]int32 // per home: alive labels (sorted, shrinks per phase)
	hooked     [][]int32 // per home: this phase's unresolved hooked labels

	forest [][]Edge // witness edges per holder (witness mode)

	scr   []nodeScratch
	arena []payloadSlab

	// The compute plane: receipt loops and collection walks shard across
	// pool workers by home index, with per-shard collection scratch and
	// error slots so the parallel relabel stays race-free and its first
	// error (in home order) survives the merge.
	pool   *par.Pool
	wscr   []collectScratch
	relErr []error

	// planErr holds, per compute node, the failure its planning callback
	// met while answering queries (ErrUnresolvedLabel, ErrDanglingPointer);
	// each callback writes only its own slot.
	planErr []error
}

// round executes one planned exchange, named label, with fn planning each
// compute node's sends. Execute copies every payload into the receiver
// inboxes before it returns, so one arena per node suffices and each round
// reuses it.
func (pr *proto) round(label string, fn func(i int, out *netsim.Outbox)) {
	x := pr.e.Exchange()
	x.Label(label)
	pr.plan(x, fn)
	x.Execute()
}

// plan queues on x the round fn plans for each compute node, on payload
// arenas emptied for it.
func (pr *proto) plan(x *netsim.Exchange, fn func(i int, out *netsim.Outbox)) {
	for i := range pr.arena {
		pr.arena[i].buf = pr.arena[i].buf[:0]
	}
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		fn(int(pr.nodeIdx[v]), out)
	})
}

func (pr *proto) slab(i int) *payloadSlab { return &pr.arena[i] }

// planFailure returns the first failure, in compute order, that a planning
// callback recorded.
func (pr *proto) planFailure() error {
	for _, err := range pr.planErr {
		if err != nil {
			return err
		}
	}
	return nil
}

// idxOf resolves an original vertex id to its dense index.
func (pr *proto) idxOf(x uint64) int32 {
	if pr.idToIdx != nil {
		return pr.idToIdx[x]
	}
	k, _ := slices.BinarySearch(pr.ids, x)
	return int32(k)
}

// sortDedup orders an index list ascending and distinct (sortIndices) on
// node i's scratch.
func (pr *proto) sortDedup(i int, s []int32) []int32 {
	sc := &pr.scr[i]
	return sortIndices(s, len(pr.label), &sc.bm, &sc.ndtmp)
}

// emitIndexGroups groups an ascending index list by home (ascending home,
// then ascending index — the exact order the map path produced) and sends
// one arena-backed message per nonempty home. The input is already index-
// sorted, so the stable home radix preserves the order; the list is
// reordered in place (every caller is done with it after the emit).
func (pr *proto) emitIndexGroups(i int, out *netsim.Outbox, tag netsim.Tag, items []int32) {
	if len(items) == 0 {
		return
	}
	sc := &pr.scr[i]
	sortByHome(items, &sc.emitTmp, func(x int32) int32 { return pr.homeOf[x] }, len(pr.nodes))
	for s := 0; s < len(items); {
		h := pr.homeOf[items[s]]
		e := s + 1
		for e < len(items) && pr.homeOf[items[e]] == h {
			e++
		}
		out.Send(pr.nodes[h], tag, pr.encodeIndices(i, items[s:e]))
		s = e
	}
}

// encodeIndices copies an index list into an arena-backed payload of node i.
func (pr *proto) encodeIndices(i int, xs []int32) []uint64 {
	batch := pr.slab(i).grab(len(xs))
	for k, x := range xs {
		batch[k] = uint64(uint32(x))
	}
	return batch
}

// enroll registers vertex x at its home i the first time the home hears of
// it: the vertex is alive and its label is itself.
func (pr *proto) enroll(i int, x int32) {
	if !pr.registered[x] {
		pr.registered[x] = true
		pr.label[x] = x
		pr.homedVerts[i] = append(pr.homedVerts[i], x)
		pr.aliveList[i] = append(pr.aliveList[i], x)
	}
}

// sortEnrolled orders home i's vertex and alive lists once the round that
// registers vertices is read (enroll keeps them distinct).
func (pr *proto) sortEnrolled(i int) {
	pr.homedVerts[i] = pr.sortDedup(i, pr.homedVerts[i])
	pr.aliveList[i] = pr.sortDedup(i, pr.aliveList[i])
}

// collectNext pre-combines, from node i's freshly relabeled state, what
// the next phase's propose sweep will send: one proposal per endpoint label
// of its active edges, label-ascending as the wire carries them, and the
// 1-word entries beside them — the labels of cands that no proposal names,
// ascending. In witness mode a label's proposal is its least neighbor, with
// the least edge to it as the witness; otherwise the node contracts what it
// holds: a union-find over its active edges, and each label offers the
// least label of its local component, which is never more than its least
// neighbor. The stamped arrays (owned by the calling pool shard) combine a
// candidate in O(1), or amortized O(log n) for a union-find step, so only
// the distinct labels are ever ordered (sortIndices), and the lists are
// built at their final size. It also clears node i's answer records for
// the sweep to fill.
func (pr *proto) collectNext(i int, ws *collectScratch, cands []int32) {
	sc := &pr.scr[i]
	st := ws.begin(len(pr.label), pr.witness)
	if pr.witness {
		if cap(sc.sent) > cap(sc.pairs) {
			// A node that forwarded its list kept it in sent for the won
			// bits; the bigger buffer takes the new list.
			sc.pairs, sc.sent = sc.sent, sc.pairs
		}
		sc.sent = sc.sent[:0]
		for _, ed := range pr.active[i] {
			w := uint64(uint32(ed.wu))<<32 | uint64(uint32(ed.wv))
			ws.offerW(st, ed.a, ed.b, w)
			ws.offerW(st, ed.b, ed.a, w)
		}
	} else {
		for _, ed := range pr.active[i] {
			ws.key(st, ed.b)
			ws.join(st, ed.a, ed.b)
		}
	}
	pr.buildProps(i, ws)
	// The epoch's labels are exactly the proposal labels; the proposals are
	// built, so the entries dedup against the same stamps.
	sc.need = pr.sortDedup(i, ws.unclaimed(st, cands))
	sc.askBuf, sc.asked = sc.askBuf[:0], sc.asked[:0]
}

// collectFirst builds phase 1's planning inputs from the initial placement,
// before any vertex is homed: label[v] is v, so the proposals are the
// active endpoints as they are (a home resolves its own vertices' phase-1
// roots itself, so no need entry asks for one). The local vertices no
// proposal names — those only self-loops mention here — become the vertex
// entries phase 1's propose sweep carries to their homes.
func (pr *proto) collectFirst() {
	pr.pool.Blocks("cc collect init", len(pr.nodes), func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			pr.collectNext(i, &pr.wscr[shard], pr.scr[i].need)
		}
	})
}

// mergeProps folds the messages node i's members sent up at stage si into
// the carrier's own lists. The carrier's list seeds a fresh epoch and the
// members' entries are offered into it in inbox order. In witness mode they
// are min-combined on b, the first-offered of equal b's staying with its
// source (the carrier's own entry keeps its own, a member's is its askBuf
// position). Otherwise every entry [a, b] joins a and b in one union-find,
// so the carrier contracts what its block knows, and each label offers the
// least label of its set: no more than the least b offered for it. Either
// way the list is rebuilt label-ascending with one entry per label that
// some entry led with; a label named only as a b gets none. The 1-word
// entries are unioned, and an entry is dropped once a proposal names its
// label: the proposal registers it, or asks for its root. Every message
// that will be answered is recorded for stage si's answer.
func (pr *proto) mergeProps(i, si int, ws *collectScratch, ib netsim.Inbox) {
	sc := &pr.scr[i]
	st := ws.begin(len(pr.label), pr.witness)
	for _, p := range sc.pairs { // empty unless witness
		ws.offerFrom(st, int32(p.k1>>32), int32(uint32(p.k1)), p.k2)
	}
	for _, k := range sc.k1s { // empty when witness
		ws.join(st, int32(k>>32), int32(uint32(k)))
	}
	pr.reserveAsked(i, ib, tagProposeUp, tagNeedUp)
	for mi := 0; mi < ib.Len(); mi++ {
		m := ib.At(mi)
		switch m.Tag {
		case tagProposeUp:
			lo := pr.keepAsked(i, si, m, &ws.bs)
			as := sc.askBuf[lo:]
			if pr.witness {
				for k, b := range ws.bs {
					ws.offerFrom(st, as[k], b, fromAsk|uint64(lo+k))
				}
			} else {
				for k, b := range ws.bs {
					ws.join(st, as[k], b)
				}
			}
		case tagNeedUp:
			pr.keepAsked(i, si, m, nil)
			fallthrough
		case tagVertexUp:
			for _, xk := range m.Keys {
				sc.need = append(sc.need, int32(xk))
			}
		}
	}
	pr.buildProps(i, ws)
	sc.need = pr.sortDedup(i, ws.unclaimed(st, sc.need))
}

// reserveAsked makes room in node i's answer records for every message of
// inbox ib that carries proposals (props) or need entries (need), so
// keepAsked allocates at most once per receipt. The labels of proposal
// messages are counted exactly (propLabels): reserving a slot per word,
// twice what half-full payloads need, raised the benchmark's peak RSS.
func (pr *proto) reserveAsked(i int, ib netsim.Inbox, props, need netsim.Tag) {
	sc := &pr.scr[i]
	n := ib.KeyCount(need)
	for mi := 0; mi < ib.Len(); mi++ {
		if m := ib.At(mi); m.Tag == props {
			n += propLabels(m.Keys)
		}
	}
	sc.asked = slices.Grow(sc.asked, ib.Len())
	sc.askBuf = slices.Grow(sc.askBuf, n)
}

// propLabels counts the entries of a proposal payload (wireProps): its
// labels are the words greater than every word before them (readProps).
func propLabels(keys []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	n, top := 1, keys[0]
	for _, w := range keys[1:] {
		// A coin toss on most payloads, as in readProps: no branch.
		c := 0
		if w > top {
			c = 1
		}
		n += c
		top = max(top, w)
	}
	return n
}

// keepAsked records message m, received by node i at sweep stage s, for
// that stage's answer: its labels copied into askBuf, and it returns the
// askBuf position of the first. With bs nil m is a need message, whose
// every key is a label; otherwise it is a proposal message, whose entries
// readProps decodes, the labels into askBuf and the b's, in the same
// order, into *bs.
func (pr *proto) keepAsked(i, s int, m netsim.Message, bs *[]int32) int {
	sc := &pr.scr[i]
	lo := len(sc.askBuf)
	if bs != nil {
		sc.askBuf, *bs = readProps(m.Keys, sc.askBuf, slices.Grow((*bs)[:0], len(m.Keys)))
	} else {
		for _, x := range m.Keys {
			sc.askBuf = append(sc.askBuf, int32(x))
		}
	}
	sc.asked = append(sc.asked, askedList{from: m.From, stage: int32(s), lo: int32(lo), hi: int32(len(sc.askBuf)), props: bs != nil})
	return lo
}

// buildProps rebuilds node i's proposal list from the epoch: the offered
// labels, distinct already, are put in order by sortIndices, and the list
// is written once, at its final size, in the label-ascending order every
// proposal message carries — each label with its minimum in witness mode,
// the label itself where that is larger (such a label cannot hook, and
// b ≤ a is what the wire needs), otherwise with the root of its set.
func (pr *proto) buildProps(i int, ws *collectScratch) {
	sc := &pr.scr[i]
	ws.labels = sortIndices(ws.labels, len(pr.label), &ws.bm, &ws.ltmp)
	if pr.witness {
		prs := slices.Grow(sc.pairs[:0], len(ws.labels))
		for _, a := range ws.labels {
			prs = append(prs, propPair{k1: uint64(uint32(a))<<32 | uint64(uint32(min(a, ws.minB[a]))), k2: ws.minW[a]})
		}
		sc.pairs = prs
	} else {
		ks := slices.Grow(sc.k1s[:0], len(ws.labels))
		for _, a := range ws.labels {
			ks = append(ks, uint64(uint32(a))<<32|uint64(uint32(ws.find(ws.dstamp, a))))
		}
		sc.k1s = ks
	}
}

// numProps reports how many proposal minima node i currently holds.
func (pr *proto) numProps(i int) int {
	if pr.witness {
		return len(pr.scr[i].pairs)
	}
	return len(pr.scr[i].k1s)
}

// encodeProps serializes node i's sorted proposals (ascending label) into
// an arena-backed payload.
func (pr *proto) encodeProps(i int) []uint64 {
	if pr.witness {
		return wireProps(pr.slab(i), pr.scr[i].pairs, pairKey)
	}
	return wireProps(pr.slab(i), pr.scr[i].k1s, bareKey)
}

// wireProps writes label-ascending proposals with keys a<<32|b, every
// b ≤ a, onto an arena-backed payload of slab sl as the wire carries them:
// each label, followed by its b only where that differs from the entry
// before's, so [a1, b1, a2, a3, b3, …]. readProps reads it back.
func wireProps[T any](sl *payloadSlab, ps []T, key func(T) uint64) []uint64 {
	buf := sl.grab(2 * len(ps))
	n, last := 0, uint64(1<<32) // no b precedes the first entry's
	for _, p := range ps {
		k := key(p)
		b := k & 0xFFFFFFFF
		// The b is always written and kept only where it changed, so the
		// loop has no data-dependent branch.
		buf[n], buf[n+1] = k>>32, b
		n++
		if b != last {
			n++
		}
		last = b
	}
	return sl.shrink(buf, n)
}

// readProps decodes a proposal payload (wireProps), appending each entry's
// label to as and its b to bs. Labels strictly ascend and every b ≤ a, so
// a word not greater than the label before it is that label's b, and any
// other word is the next label, whose entry keeps the b before it.
func readProps(keys []uint64, as, bs []int32) ([]int32, []int32) {
	var b uint64
	for k := 0; k < len(keys); {
		a := keys[k]
		k++
		w := a + 1 // past the end: no b follows
		if k < len(keys) {
			w = keys[k]
		}
		// Whether a b follows is a coin toss on most payloads, so it is
		// taken with conditional moves rather than a branch.
		step := 0
		if w <= a {
			step = 1
		}
		if w <= a {
			b = w
		}
		k += step
		as = append(as, int32(a))
		bs = append(bs, int32(b))
	}
	return as, bs
}

// propose sends every endpoint label of an active edge a proposal — its
// least neighbor in witness mode, otherwise the least label of its locally
// known component, both collected at relabel time — combines them per
// block per level under a combining schedule (mergeProps), delivers them
// to the label homes, and min-merges them into the best-proposal arrays.
// Beside the proposals
// travel 1-word entries for the labels a node needs but proposes nothing
// for, which combiners drop once they hold a proposal for the label: in
// the first sweep of a run, the vertices no proposal names, which their
// homes enroll (homes enroll every label a proposal names, too); in later
// phases, the labels of homed vertices, whose roots relabel needs. Every
// receiver records the proposal and need messages it gets, which answer
// replies to once the roots are known.
func (pr *proto) propose() {
	// Phase 1's sweep, or phase 0's on an input that runs no phase.
	first := pr.phase <= 1
	entry, entryUp := tagNeed, tagNeedUp
	if first {
		entry, entryUp = tagVertex, tagVertexUp
	}
	for si := range pr.steps {
		st := pr.steps[si]
		pr.round("propose", func(i int, out *netsim.Outbox) {
			if st.Target[i] == i {
				return
			}
			to := pr.nodes[st.Target[i]]
			if pr.numProps(i) > 0 {
				out.Send(to, tagProposeUp, pr.encodeProps(i))
			}
			if len(pr.scr[i].need) > 0 {
				out.Send(to, entryUp, pr.encodeIndices(i, pr.scr[i].need))
			}
		})
		pr.pool.Blocks("cc propose up receipt", len(pr.nodes), func(shard, lo, hi int) {
			for i := lo; i < hi; i++ {
				sc := &pr.scr[i]
				if st.Target[i] != i {
					// Forwarded up, once: a block's combiner is its heaviest
					// member, first in compute order among equals, so it
					// combines every finer block it is in, and a node that
					// forwarded never holds a list again this sweep. A
					// witness list stays in sent until its answer's won bits
					// are read.
					if len(sc.pairs) > 0 {
						sc.sent, sc.pairs = sc.pairs, sc.sent[:0]
					}
					sc.k1s, sc.need = sc.k1s[:0], sc.need[:0]
					continue
				}
				if ib := pr.e.Inbox(pr.nodes[i]); ib.Len() > 0 {
					pr.mergeProps(i, si, &pr.wscr[shard], ib)
				}
			}
		})
	}
	pr.round("propose", func(i int, out *netsim.Outbox) {
		pr.emitProposals(i, out)
		pr.emitIndexGroups(i, out, entry, pr.scr[i].need)
	})
	// Proposals and entries target the label's home, so node i min-merges,
	// enrolls and records only entries homed at it.
	pr.pool.Blocks("cc propose receipt", len(pr.nodes), func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			pr.homeReceipt(i, first, &pr.wscr[shard].bs)
		}
	})
}

// homeReceipt reads node i's inbox of the propose sweep's last round, the
// homes' stage: it enrolls the labels of vertex entries (and with first, of
// proposals too), records every proposal and need message for the answer,
// and min-merges the proposals into the best-proposal arrays, their b's
// read into the pool shard's scratch bs. Of equal b's the first offered
// stays, and in witness mode bestPos keeps its position.
func (pr *proto) homeReceipt(i int, first bool, bs *[]int32) {
	home := len(pr.steps)
	ib := pr.e.Inbox(pr.nodes[i])
	pr.reserveAsked(i, ib, tagPropose, tagNeed)
	for mi := 0; mi < ib.Len(); mi++ {
		m := ib.At(mi)
		switch m.Tag {
		case tagVertex:
			for _, xk := range m.Keys {
				pr.enroll(i, int32(xk))
			}
			continue
		case tagNeed:
			pr.keepAsked(i, home, m, nil)
			continue
		}
		// The round's third tag: proposals, which are answered too.
		lo := pr.keepAsked(i, home, m, bs)
		as := pr.scr[i].askBuf[lo:]
		for k, b := range *bs {
			a := as[k]
			if first {
				pr.enroll(i, a)
			}
			if pr.bestAt[a] != pr.phase || b < pr.bestB[a] {
				pr.bestAt[a] = pr.phase
				pr.bestB[a] = b
				if pr.witness {
					pr.bestPos[a] = int32(lo + k)
				}
			}
		}
	}
	if first {
		pr.sortEnrolled(i)
	}
	if pr.witness {
		// Every message of the sweep is recorded: size the won bitmap
		// over askBuf.
		sc := &pr.scr[i]
		words := (len(sc.askBuf) + 63) >> 6
		if cap(sc.won) < words {
			sc.won = make([]uint64, words)
		}
		sc.won = sc.won[:words]
		clear(sc.won)
	}
}

// emitProposals sends node i's per-label minima to the label homes, one
// message per nonempty home, labels ascending within each — the minima are
// already label-ascending, so the stable home radix preserves the wire
// order. The minima lists are reordered in place; in witness mode the
// reordered list is what takeWins reads the homes' won bits against.
func (pr *proto) emitProposals(i int, out *netsim.Outbox) {
	sc := &pr.scr[i]
	if pr.witness {
		emitByHome(pr, i, out, sc.pairs, &sc.ptmp, pairKey)
	} else {
		emitByHome(pr, i, out, sc.k1s, &sc.k1tmp, bareKey)
	}
}

// emitByHome is emitProposals over either list, with key giving an entry's
// a<<32|b.
func emitByHome[T any](pr *proto, i int, out *netsim.Outbox, ps []T, tmp *[]T, key func(T) uint64) {
	home := func(p T) int32 { return pr.homeOf[int32(key(p)>>32)] }
	sortByHome(ps, tmp, home, len(pr.nodes))
	for s := 0; s < len(ps); {
		h := home(ps[s])
		e := s + 1
		for e < len(ps) && home(ps[e]) == h {
			e++
		}
		out.Send(pr.nodes[h], tagPropose, wireProps(pr.slab(i), ps[s:e], key))
		s = e
	}
}

// hook decides each alive label's fate from its best proposal: labels
// offered a smaller label hook onto it (in witness mode setting the won
// bit of the entry that offered it first); the rest are roots. Returns the
// number of hooked labels.
func (pr *proto) hook() int {
	return int(pr.pool.Sum("cc hook", len(pr.nodes), func(_, lo, hi int) int64 {
		var unresolved int64
		for i := lo; i < hi; i++ {
			pr.hooked[i] = pr.hooked[i][:0]
			for _, a := range pr.aliveList[i] {
				if pr.bestAt[a] == pr.phase && pr.bestB[a] < a {
					pr.parAt[a] = pr.phase
					pr.parPtr[a] = pr.bestB[a]
					pr.hooked[i] = append(pr.hooked[i], a)
					if pr.witness {
						p := pr.bestPos[a]
						pr.scr[i].won[p>>6] |= 1 << (p & 63)
					}
					unresolved++
				} else {
					pr.rootAt[a] = pr.phase
					pr.rootVal[a] = a
				}
			}
		}
		return unresolved
	}))
}

// jump resolves every hooked label to the root of its hooking tree by
// iterated pointer halving (jumpOnce), failing after maxJumpIters
// iterations. Pointers strictly decrease along hooks, so the loop
// terminates in O(log chain) iterations.
func (pr *proto) jump(unresolved int) error {
	for iter := 0; unresolved > 0; iter++ {
		if iter == maxJumpIters {
			return fmt.Errorf("graph: pointer jumping did not converge after %d iterations", maxJumpIters)
		}
		var err error
		if unresolved, err = pr.jumpOnce(); err != nil {
			return err
		}
	}
	return nil
}

// jumpOnce is one pointer-halving iteration: the home of every unresolved
// label asks the home of its current pointer target, and the target's home
// answers each query message with one reply of ⌈n/64⌉ bitmap words and n
// value words, in the query's order: bit k set means the k-th target is
// resolved and value k is its root; clear, value k is the target's own
// pointer. A target with neither fails the run (ErrDanglingPointer).
// Returns the number of labels still unresolved.
func (pr *proto) jumpOnce() (int, error) {
	// Queries: one per distinct pointer target per node.
	pr.round("jump", func(i int, out *netsim.Outbox) {
		qs := pr.scr[i].need[:0]
		for _, a := range pr.hooked[i] {
			qs = append(qs, pr.parPtr[a])
		}
		qs = pr.sortDedup(i, qs)
		pr.scr[i].need = qs
		pr.emitIndexGroups(i, out, tagJumpQ, qs)
	})
	pr.round("jump", func(j int, out *netsim.Outbox) {
		ib := pr.e.Inbox(pr.nodes[j])
		for mi := 0; mi < ib.Len(); mi++ {
			m := ib.At(mi)
			if m.Tag != tagJumpQ {
				continue
			}
			words := (len(m.Keys) + 63) >> 6
			reply := pr.slab(j).grab(words + len(m.Keys))
			resolved, vals := reply[:words], reply[words:]
			clear(resolved) // the slab is reused round to round
			for k, qk := range m.Keys {
				q := int32(qk)
				switch {
				case pr.rootAt[q] == pr.phase:
					resolved[k>>6] |= 1 << (k & 63)
					vals[k] = uint64(uint32(pr.rootVal[q]))
				case pr.parAt[q] == pr.phase:
					vals[k] = uint64(uint32(pr.parPtr[q]))
				default:
					pr.planErr[j] = fmt.Errorf("%w: node %d asked home %d for label %d",
						ErrDanglingPointer, pr.nodeIdx[m.From], j, pr.ids[q])
					return
				}
			}
			out.Send(m.From, tagJumpA, reply)
		}
	})
	if err := pr.planFailure(); err != nil {
		return 0, err
	}
	// Receipt, in two epochs with a barrier between. Read epoch: every
	// hooked label's home derives the answer for the label's pointer
	// target from the frozen pre-iteration state — exactly the values the
	// reply messages carry, keyed by the hooked label so every snapshot
	// entry is written by one shard (the wire is accounted by the engine;
	// decoding it would only re-read these same arrays). Every target was
	// answered, or the run failed above. Write epoch: each label advances
	// from its own snapshot entry, so no shard ever reads parent state
	// another shard is rewriting.
	pr.pool.ForEach("cc jump snapshot", len(pr.nodes), func(i int) {
		for _, a := range pr.hooked[i] {
			q := pr.parPtr[a]
			pr.jrRoot[a] = pr.rootAt[q] == pr.phase
			if pr.jrRoot[a] {
				pr.jrVal[a] = pr.rootVal[q]
			} else {
				pr.jrVal[a] = pr.parPtr[q]
			}
		}
	})
	return int(pr.pool.Sum("cc jump advance", len(pr.nodes), func(_, lo, hi int) int64 {
		var left int64
		for i := lo; i < hi; i++ {
			keep := pr.hooked[i][:0]
			for _, a := range pr.hooked[i] {
				if pr.jrRoot[a] {
					pr.rootAt[a] = pr.phase
					pr.rootVal[a] = pr.jrVal[a]
				} else {
					pr.parPtr[a] = pr.jrVal[a]
				}
				if pr.rootAt[a] != pr.phase {
					keep = append(keep, a)
				}
			}
			pr.hooked[i] = keep
			left += int64(len(keep))
		}
		return left
	})), nil
}

// answer publishes the phase roots back along the propose sweep, one round
// per stage: the homes first, then the combiners, coarsest level first.
// Every receiver answers each proposal or need message it recorded with one
// root per label, in the order sent (sendRoots), so each node ends holding
// the root of every label it proposed for or needs: the endpoint labels of
// its active edges and the labels of its homed vertices. Phase 1's vertex
// entries only registered their vertices and get no answer. Each round
// mirrors its stage's propose round, message for message, less those
// entries. In witness mode a proposal message's answer leads with its won
// bitmap, and after each round every node that sent proposals that stage
// passes the bits it got on (takeWins) before the next round answers.
//
// Every alive label's root is resolved once jumping finishes, so the
// rootAt/rootVal arrays already hold exactly the roots the wire carries,
// at the homes and at every combiner the answers pass: replies are generated
// from them directly and the delivered roots need no per-node answer table
// — they exist for the cost model, which accounts them identically to the
// map path. The won bits are node state and are read off the wire.
func (pr *proto) answer() error {
	for s := len(pr.steps); s >= 0; s-- {
		pr.answerStage(s)
	}
	return pr.planFailure()
}

// answerStage is answer's round for sweep stage s (len(pr.steps) = homes),
// with the won bits' receipt in witness mode.
func (pr *proto) answerStage(s int) {
	pr.round("answer", func(j int, out *netsim.Outbox) {
		sc := &pr.scr[j]
		for _, a := range sc.asked {
			if a.stage == int32(s) {
				pr.sendRoots(j, out, a)
			}
		}
	})
	if pr.witness {
		pr.pool.ForEach("cc won receipt", len(pr.nodes), func(i int) { pr.takeWins(s, i) })
	}
}

// sendRoots answers, from node j, one recorded message: one root word per
// label, in the order sent, so the asker reads each root off the position
// of the label in the list it sent. In witness mode a proposal message's
// roots follow its won bitmap, ⌈n/64⌉ words whose bit k is set when the
// k-th entry is the one j took the winning proposal from — the layout of a
// jump reply. A label with no phase root records ErrUnresolvedLabel in j's
// planning slot and sends nothing.
func (pr *proto) sendRoots(j int, out *netsim.Outbox, a askedList) {
	sc := &pr.scr[j]
	asked := sc.askBuf[a.lo:a.hi]
	words := 0
	if a.props && pr.witness {
		words = (len(asked) + 63) >> 6
	}
	reply := pr.slab(j).grab(words + len(asked))
	won, roots := reply[:words], reply[words:]
	clear(won) // the slab is reused round to round
	for k, x := range asked {
		if pr.rootAt[x] != pr.phase {
			pr.planErr[j] = fmt.Errorf("%w: node %d asked node %d for label %d",
				ErrUnresolvedLabel, pr.nodeIdx[a.from], j, pr.ids[x])
			return
		}
		roots[k] = uint64(uint32(pr.rootVal[x]))
		if words > 0 {
			if p := int(a.lo) + k; sc.won[p>>6]>>(p&63)&1 == 1 {
				won[k>>6] |= 1 << (k & 63)
			}
		}
	}
	out.Send(a.from, tagRoots, reply)
}

// takeWins reads, at node i after stage s's answer round, the won bitmaps
// of the answers to the proposals i sent that stage — up to its combiner,
// or to the homes at the last — against the list it sent, and passes each
// set bit to the source of its entry: a member entry's askBuf position,
// whose bit i's own answer at that entry's stage then sets, or i's own
// witness edge, which joins the forest. The list goes to its destinations
// in runs, ascending like the inbox, and a destination's proposal answer
// comes before its answer to need entries.
func (pr *proto) takeWins(s, i int) {
	sc := &pr.scr[i]
	sent := sc.pairs
	dest := func(p propPair) int32 { return pr.homeOf[int32(p.k1>>32)] }
	if s < len(pr.steps) {
		to := int32(pr.steps[s].Target[i])
		if to == int32(i) {
			return
		}
		sent, dest = sc.sent, func(propPair) int32 { return to }
	}
	ib := pr.e.Inbox(pr.nodes[i])
	for mi, cur := 0, 0; mi < ib.Len() && cur < len(sent); mi++ {
		m := ib.At(mi)
		to := dest(sent[cur])
		if m.Tag != tagRoots || m.From != pr.nodes[to] {
			continue
		}
		end := cur + 1
		for end < len(sent) && dest(sent[end]) == to {
			end++
		}
		for w, b := range m.Keys[:(end-cur+63)>>6] {
			for ; b != 0; b &= b - 1 {
				src := sent[cur+w<<6+bits.TrailingZeros64(b)].k2
				if src&fromAsk != 0 {
					p := src &^ fromAsk
					sc.won[p>>6] |= 1 << (p & 63)
				} else {
					pr.forest[i] = append(pr.forest[i], Edge{U: pr.ids[src>>32], V: pr.ids[src&0xFFFFFFFF]})
				}
			}
		}
		cur = end
	}
}

// relabel rewrites every active edge onto the phase roots, dropping edges
// that became internal, updates the homed vertex labels, retires the
// labels that hooked, pre-collects the next phase's proposal minima and
// need entries while the state is hot, and steps the scratch capacities
// down with the contraction. The walk shards by home across the pool; the
// root arrays are frozen (read-only) here, every write is home-local, and
// each shard keeps its first error so the merge can return the first
// failure in home order — identical to the serial walk. It reports how many
// scratch buffers it released, for graph.cc.scratch_trims.
func (pr *proto) relabel() (int64, error) {
	for s := range pr.relErr {
		pr.relErr[s] = nil
	}
	trims := pr.pool.Sum("cc relabel", len(pr.nodes), func(shard, lo, hi int) int64 {
		ws := &pr.wscr[shard]
		var nt int64
		for i := lo; i < hi; i++ {
			out := pr.active[i][:0]
			for _, ed := range pr.active[i] {
				if pr.rootAt[ed.a] != pr.phase || pr.rootAt[ed.b] != pr.phase {
					pr.relErr[shard] = fmt.Errorf("graph: node %d missing root for edge label (%d,%d)", i, pr.ids[ed.a], pr.ids[ed.b])
					return nt
				}
				ra, rb := pr.rootVal[ed.a], pr.rootVal[ed.b]
				if ra != rb {
					out = append(out, workEdge{a: ra, b: rb, wu: ed.wu, wv: ed.wv})
				}
			}
			pr.active[i] = out
			for _, v := range pr.homedVerts[i] {
				if pr.rootAt[pr.label[v]] != pr.phase {
					pr.relErr[shard] = fmt.Errorf("graph: node %d missing root for vertex label %d", i, pr.ids[pr.label[v]])
					return nt
				}
				pr.label[v] = pr.rootVal[pr.label[v]]
			}
			keep := pr.aliveList[i][:0]
			for _, a := range pr.aliveList[i] {
				if pr.rootVal[a] == a && pr.rootAt[a] == pr.phase {
					keep = append(keep, a)
				}
			}
			pr.aliveList[i] = keep
			if pr.fs == nil {
				cands := pr.scr[i].need[:0]
				for _, v := range pr.homedVerts[i] {
					cands = append(cands, pr.label[v])
				}
				pr.collectNext(i, ws, cands)
			}
			nt += pr.trimScratch(i)
		}
		return nt
	})
	for _, err := range pr.relErr {
		if err != nil {
			return 0, err
		}
	}
	return trims, nil
}

func (pr *proto) totalActive() int {
	n := 0
	for i := range pr.active {
		n += len(pr.active[i])
	}
	return n
}

// newProto builds the contraction state of one run: renumbering pass, homes,
// combining schedule, flat home arrays.
func newProto(tr *topology.Tree, edges Placement, seed uint64, v variant, opts []netsim.Option) (*proto, error) {
	if err := checkPlacement(tr, edges); err != nil {
		return nil, err
	}
	p := tr.NumCompute()
	nodes := tr.ComputeNodes()
	nodeIdx := make([]int32, tr.NumNodes())
	for i := range nodeIdx {
		nodeIdx[i] = -1
	}
	for i, v := range nodes {
		nodeIdx[v] = int32(i)
	}

	var weights []float64
	if v.aware {
		weights = place.Capacities(tr)
	} else {
		weights = place.Uniform(p)
	}
	router, err := place.NewFlatRouter(tr, weights, seed, 0xCC0C)
	if err != nil {
		return nil, err
	}

	// Expanding phases push roots to subscribers, so they run no schedule.
	var steps []place.UpStep
	if v.aware && !v.expand {
		if hier := place.HierarchyFor(tr); hier != nil {
			steps = hier.UpSweep(weights)
		}
	}

	// The compute plane forks on the engine's pool: WithWorkers governs
	// exchange planning, accounting, and per-home protocol compute alike.
	e := netsim.NewEngine(tr, opts...)
	pool := e.Pool()

	ids, idToIdx := renumber(pool, edges)
	nV := len(ids)

	// The chooser is read-only after construction (alias-table lookups),
	// so home hashing shards freely.
	chooser := router.Chooser(0)
	homeOf := make([]int32, nV)
	pool.ForEach("cc renumber homes", nV, func(k int) {
		homeOf[k] = int32(chooser.Choose(ids[k]))
	})

	pr := &proto{
		e:          e,
		nodes:      nodes,
		nodeIdx:    nodeIdx,
		steps:      steps,
		witness:    v.witness,
		ids:        ids,
		idToIdx:    idToIdx,
		homeOf:     homeOf,
		active:     make([][]workEdge, p),
		label:      make([]int32, nV),
		registered: make([]bool, nV),
		bestAt:     make([]int32, nV),
		bestB:      make([]int32, nV),
		parAt:      make([]int32, nV),
		parPtr:     make([]int32, nV),
		rootAt:     make([]int32, nV),
		rootVal:    make([]int32, nV),
		jrVal:      make([]int32, nV),
		jrRoot:     make([]bool, nV),
		homedVerts: make([][]int32, p),
		aliveList:  make([][]int32, p),
		hooked:     make([][]int32, p),
		scr:        make([]nodeScratch, p),
		pool:       pool,
		wscr:       make([]collectScratch, pool.Workers()),
		relErr:     make([]error, pool.Workers()),
		planErr:    make([]error, p),
	}
	pr.arena = make([]payloadSlab, p)
	if v.witness {
		pr.bestPos = make([]int32, nV)
		pr.forest = make([][]Edge, p)
	}

	pr.pool.ForEach("cc initial scan", len(edges), func(i int) {
		frag := edges[i]
		nd := make([]int32, 0, 2*len(frag))
		act := make([]workEdge, 0, len(frag))
		for _, ed := range frag {
			u, v := pr.idxOf(ed.U), pr.idxOf(ed.V)
			nd = append(nd, u, v)
			if u != v {
				act = append(act, workEdge{a: u, b: v, wu: u, wv: v})
			}
		}
		pr.scr[i].need, pr.active[i] = nd, act
	})
	return pr, nil
}

// renumber is the renumbering pass: the sorted distinct vertex ids become
// the dense index space (ids, position = index). Sorting keeps index order
// equal to id order, so every min-label comparison downstream is unchanged.
// Dense id spaces (ids packed near 0..n) also get a direct id -> index
// table; sparse or hashed ones leave it nil and idxOf binary-searches.
//
// The pool first takes each shard's largest id. When every shard's share of
// the 2m endpoints is at least as long as a bitmap up to that id has words,
// renumberMarks runs; hashed or sparse ids take renumberSort. Both give the
// id space the serial walk produces, at every worker count.
func renumber(pool *par.Pool, edges Placement) ([]uint64, []int32) {
	maxes := make([]uint64, pool.Workers())
	pool.Blocks("cc renumber max", len(edges), func(shard, lo, hi int) {
		var mx uint64
		for _, frag := range edges[lo:hi] {
			for _, ed := range frag {
				mx = max(mx, ed.U, ed.V)
			}
		}
		maxes[shard] = mx
	})
	maxID := slices.Max(maxes)
	if perShard := uint64(2*edges.NumEdges()) / uint64(len(maxes)); perShard >= maxID>>6+1 {
		return renumberMarks(pool, edges, maxID)
	}
	return renumberSort(pool, edges, maxID)
}

// denseIDs reports whether nV distinct ids up to maxID are packed tightly
// enough for a direct id -> index table.
func denseIDs(maxID uint64, nV int) bool { return nV > 0 && maxID <= uint64(4*nV)+1024 }

// renumberMarks is the bitmap side of the renumbering pass: every pool
// shard marks its fragments' endpoints into its own bitmap over [0, maxID],
// the bitmaps are ORed together, and one scan of the union writes ids and
// the table.
func renumberMarks(pool *par.Pool, edges Placement, maxID uint64) ([]uint64, []int32) {
	words := maxID>>6 + 1
	marks := make([][]uint64, pool.Workers())
	pool.Blocks("cc renumber mark", len(edges), func(shard, lo, hi int) {
		bm := make([]uint64, words)
		for _, frag := range edges[lo:hi] {
			for _, ed := range frag {
				bm[ed.U>>6] |= 1 << (ed.U & 63)
				bm[ed.V>>6] |= 1 << (ed.V & 63)
			}
		}
		marks[shard] = bm
	})
	union, nV := marks[0], 0
	for w := range union {
		for _, bm := range marks[1:] {
			if bm != nil { // a shard the fork did not need
				union[w] |= bm[w]
			}
		}
		nV += bits.OnesCount64(union[w])
	}
	ids := make([]uint64, 0, nV)
	var idToIdx []int32
	if denseIDs(maxID, nV) {
		idToIdx = make([]int32, maxID+1)
	}
	for w, b := range union {
		for ; b != 0; b &= b - 1 {
			x := uint64(w)<<6 | uint64(bits.TrailingZeros64(b))
			if idToIdx != nil {
				idToIdx[x] = int32(len(ids))
			}
			ids = append(ids, x)
		}
	}
	return ids, idToIdx
}

// renumberSort is the radix side of the renumbering pass: fragments copy
// their endpoints into precomputed disjoint offsets, the pool's parallel
// radix sorts them, and the run of distinct ids is the index space.
func renumberSort(pool *par.Pool, edges Placement, maxID uint64) ([]uint64, []int32) {
	offs := make([]int, len(edges)+1)
	for fi, frag := range edges {
		offs[fi+1] = offs[fi] + 2*len(frag)
	}
	all := make([]uint64, offs[len(edges)])
	pool.ForEach("cc renumber fill", len(edges), func(fi int) {
		k := offs[fi]
		for _, ed := range edges[fi] {
			all[k] = ed.U
			all[k+1] = ed.V
			k += 2
		}
	})
	all, _ = pool.SortUint64(all, nil)
	ids := slices.Compact(all)
	var idToIdx []int32
	if denseIDs(maxID, len(ids)) {
		idToIdx = make([]int32, maxID+1)
		pool.ForEach("cc renumber table", len(ids), func(k int) {
			idToIdx[ids[k]] = int32(k)
		})
	}
	return ids, idToIdx
}

// assemble packages the converged contraction state into a Result.
func (pr *proto) assemble(phases int, strategy string) *Result {
	res := &Result{
		PerNode:  make([]map[uint64]uint64, len(pr.nodes)),
		Phases:   phases,
		Strategy: strategy,
	}
	// Per-home maps and fingerprints build independently; the reduce below
	// sums them in home order (uint64 addition is associative, so the
	// totals are worker-count-invariant either way).
	sums := make([]uint64, len(pr.nodes))
	pr.pool.ForEach("cc assemble", len(pr.nodes), func(i int) {
		m := make(map[uint64]uint64, len(pr.homedVerts[i]))
		for _, v := range pr.homedVerts[i] {
			m[pr.ids[v]] = pr.ids[pr.label[v]]
		}
		res.PerNode[i] = m
		sums[i] = Checksum(m)
	})
	for i := range pr.nodes {
		res.Components += int64(len(pr.aliveList[i]))
		// The homes partition the vertices, so summing the per-home
		// fingerprints equals Checksum over the merged labeling.
		res.Checksum += sums[i]
	}
	if pr.witness {
		for i := range pr.nodes {
			res.Forest = append(res.Forest, pr.forest[i]...)
		}
	}
	res.Report = pr.e.Report()
	return res
}
