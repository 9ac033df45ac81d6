package graph

import (
	"fmt"
	"math/bits"
	"slices"

	"topompc/internal/core/place"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// maxPhases bounds the contraction loop defensively: min-hooking leaves an
// independent set of labels per phase (at least halving), so 64 phases
// outruns any uint64-labeled input.
const maxPhases = 64

// maxJumpIters bounds one phase's pointer-jumping loop; path halving
// converges in O(log chain) iterations and hooking chains are at most the
// label count, so 128 is unreachable without a bug.
const maxJumpIters = 128

// CC computes connected components with the topology-aware protocol:
// capacity-weighted vertex homes and per-cut combining of label updates.
func CC(t *topology.Tree, edges Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return contract(t, edges, seed, variant{aware: true}, opts)
}

// CCFlat is the topology-oblivious baseline: uniform vertex homes and
// direct update delivery, as on a flat network.
func CCFlat(t *topology.Tree, edges Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return contract(t, edges, seed, variant{}, opts)
}

// SpanningForest runs the topology-aware protocol with witness tracking:
// every hooking records the original graph edge that joined the two
// components, and the union of witnesses is a spanning forest.
func SpanningForest(t *topology.Tree, edges Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return contract(t, edges, seed, variant{aware: true, witness: true}, opts)
}

// CCFast computes connected components with budgeted graph exponentiation
// (ccfast.go) on capacity-weighted homes. Same inputs and Result contract
// as CC.
func CCFast(t *topology.Tree, edges Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return contract(t, edges, seed, variant{aware: true, expand: true}, opts)
}

// variant is what one connectivity run chooses; everything else is the one
// contraction loop below.
type variant struct {
	// aware homes vertices by bandwidth capacity and combines the label
	// exchanges per cut; otherwise homes are uniform and delivery direct.
	aware bool
	// witness carries, with every proposal, the graph edge behind it, and
	// records the edge of every hooking.
	witness bool
	// expand runs expanding phases (ccfast.go): a phase learns its proposals
	// from one adjacency round and capped doubling rounds, and its roots
	// are pushed to the nodes that round subscribed. Otherwise phases are
	// Borůvka's: per-cut combined min-neighbor proposals, and roots looked
	// up along the combining schedule.
	expand bool
}

// contract is the connectivity driver: every phase learns, for each alive
// label, the smallest label it can hook onto, hooks, resolves the hooking
// forests to their roots by pointer jumping, publishes the roots to the
// nodes holding edges or vertices under those labels, and relabels — until
// no edge joins two labels. The two phase kinds differ only in how proposals
// are learned and roots published; a Borůvka phase is an expanding phase
// with a doubling budget of zero, delivered along the combining schedule.
// In both kinds phase 1's first sweep also registers the vertices: a home
// enrolls a label when the first message naming it arrives, so no round is
// spent on registration alone.
func contract(tr *topology.Tree, edges Placement, seed uint64, v variant, opts []netsim.Option) (*Result, error) {
	pr, err := newProto(tr, edges, seed, v, opts)
	if err != nil {
		return nil, err
	}
	// What the result and the flight recorder call this run and its phases.
	strategy, lane, span, counter := "flat", "graph cc phases", "boruvka phase %d", "graph.cc.phases"
	switch {
	case v.expand:
		strategy, lane, span, counter = "fast", "graph cc-fast phases", "expand phase %d", "graph.ccfast.phases"
	case len(pr.steps) > 0:
		strategy = fmt.Sprintf("aware+combine×%d", len(pr.steps))
	case v.aware:
		strategy = "aware"
	}
	mx := pr.e.Metrics()
	var mActive *obs.Histogram // nil (a no-op) on expanding runs, which never reported it
	if v.expand {
		// The adjacency round of phase 1 registers the vertices.
		pr.fs = newFastState(len(pr.ids), len(pr.nodes), mx)
	} else {
		// Phase 1's propose sweep registers the vertices.
		pr.collectFirst()
		mActive = mx.Histogram("graph.cc.active_edges")
	}

	// Flight recorder: contraction metrics plus one span per phase on a
	// dedicated lane, and the hierarchy's combining decisions. All of it
	// vanishes behind nil checks when the engine has no recorder.
	tc := pr.e.Tracer()
	var phaseTid int64
	if tc != nil {
		phaseTid = tc.NewTid(lane)
		pr.hier.TraceCombine(tc, pr.weights)
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
			}
			break
		}
		if phases == maxPhases {
			return nil, fmt.Errorf("graph: contraction did not converge after %d phases", phases)
		}
		phases++
		pr.phase = int32(phases)
		mPhases.Inc()
		mActive.Observe(float64(act))
		var sp obs.Span
		if tc != nil {
			sp = obs.Begin(tc, phaseTid, fmt.Sprintf(span, phases), "graph.phase")
		}
		if v.expand {
			pr.expand()
		} else {
			pr.propose()
		}
		if err := pr.jump(pr.hook()); err != nil {
			return nil, err
		}
		if v.expand {
			pr.pushRoots()
		} else {
			pr.lookups()
		}
		if err := pr.relabel(); err != nil {
			return nil, err
		}
		if tc != nil {
			args := map[string]any{"phase": phases, "active_edges": act}
			if v.expand {
				args["doubling_rounds"] = pr.fs.dblRounds
			}
			sp.End(args)
		}
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
// Index lists — phase 1's vertex entries, lookup needs, jump queries, the
// labels a collection touched — are sets over the dense universe [0, nV), and
// sortIndices orders them ascending and distinct: a list at least as long
// as a bitmap over the universe has words (nV/64) is marked into the
// bitmap and read back word by word, a shorter one takes an LSD radix that
// skips constant byte lanes. On a dense graph a home's need list is many
// times the bitmap's length, so the local step is linear work with no sort.
//
// Proposals are min-combined in linear work in both modes: the relabel
// walk folds every active edge into stamped per-label minima (witness mode
// keys them (b, wu, wv), the betterProp order, and carries the winning edge
// along), orders the distinct labels it touched with sortIndices, and
// builds the next phase's proposal list from the minima in that order; a
// combining carrier folds its members' lists into its own the same way.
// The lookup needs dedup against the same stamps. No comparator sort, and
// no sort of candidates rather than labels, runs on the data path.
//
// The wire protocol is unchanged except that messages carry indices
// instead of ids. The renumbering is order-preserving and homes are still
// hashed from the original ids, so every message has the same destination,
// tag, and length as the retired map-based path (runMaps, the test oracle)
// — cost reports are byte-identical, which the property tests pin.

// workEdge is one active contracted edge: current endpoint label indices
// plus the original witness endpoint indices.
type workEdge struct{ a, b, wu, wv int32 }

// propPair is a witness-mode min-neighbor proposal: k1 = a<<32|b and
// k2 = wu<<32|wv, so within one label a the betterProp total order
// (b, wu, wv) is ascending (k1, k2).
//
// Non-witness proposals skip the struct entirely: the wire drops the
// witness halves, so equal (a, b) entries are indistinguishable and the
// minima are bare k1 keys.
type propPair struct{ k1, k2 uint64 }

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
	s, *tmp = radixSortInt32(s, *tmp)
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

// radixSortInt32 is par.SerialSortUint64's LSD byte radix (constant lanes
// skipped) for non-negative int32 index lists.
func radixSortInt32(a, tmp []int32) ([]int32, []int32) {
	if len(a) < 64 {
		slices.Sort(a)
		return a, tmp
	}
	if cap(tmp) < len(a) {
		tmp = make([]int32, len(a))
	}
	tmp = tmp[:len(a)]
	var hist [4][256]int32
	for _, v := range a {
		u := uint32(v)
		hist[0][u&0xff]++
		hist[1][(u>>8)&0xff]++
		hist[2][(u>>16)&0xff]++
		hist[3][(u>>24)&0xff]++
	}
	src, dst := a, tmp
	for pass := 0; pass < 4; pass++ {
		sh := uint(pass) * 8
		h := &hist[pass]
		if int(h[(uint32(src[0])>>sh)&0xff]) == len(src) {
			continue
		}
		var off [256]int32
		var sum int32
		for b := 0; b < 256; b++ {
			off[b] = sum
			sum += h[b]
		}
		for _, v := range src {
			b := (uint32(v) >> sh) & 0xff
			dst[off[b]] = v
			off[b]++
		}
		src, dst = dst, src
	}
	return src, dst
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

// memberNeed records, at a combining carrier, which labels one member
// asked for during a lookup up-sweep: a range in the carrier's needBuf
// (the keys are copied because inbox payloads are arena-backed and only
// valid for one round).
type memberNeed struct {
	from   topology.NodeID
	lo, hi int32
}

// nodeScratch is the per-compute-node reusable scratch. Entries are only
// touched by their own node's planning callback or by the pool shard that
// owns the node's home index, so neither concurrent Plan nor the parallel
// receipt loops ever race.
type nodeScratch struct {
	pairs    []propPair     // witness-mode proposal minima, one per label, ascending
	k1s      []uint64       // non-witness proposal minima, one per label, ascending
	k1tmp    []uint64       // radix scratch
	need     []int32        // phase 1's vertex entries / jump query scratch
	nextNeed []int32        // precollected distinct lookup needs
	ndtmp    []int32        // radix scratch
	bm       []uint64       // dedup bitmap over the vertex indices, kept zero
	needBuf  []int32        // combining lookups: copied member needs
	members  [][]memberNeed // per up-step: who asked for what
	emitTmp  []int32        // emit grouping: home-radix scratch
	ptmp     []propPair     // emit grouping: home-radix scratch (witness)
}

// collectScratch is one pool shard's stamped min-combine arrays for the
// relabel-time collection walks and the propose up-receipt. Each shard owns
// a private copy, so homes processed concurrently never share stamps; a
// minimum does not depend on the order its candidates are offered in and
// the offered labels are sorted before anything is built from them, so the
// per-home results are identical for every worker count.
type collectScratch struct {
	dstamp int32
	minAt  []int32
	minB   []int32
	minW   []uint64 // witness mode: packed witness edge of the minimum
	labels []int32  // the labels offered in the current epoch, each once
	ltmp   []int32  // radix scratch of labels
	bm     []uint64 // label bitmap, kept zero
}

// begin opens a fresh validity epoch over nV labels and returns its stamp.
// The arrays are sized lazily: shards that never combine cost nothing.
func (ws *collectScratch) begin(nV int, witness bool) int32 {
	if len(ws.minAt) < nV {
		ws.minAt = make([]int32, nV)
		ws.minB = make([]int32, nV)
	}
	if witness && len(ws.minW) < nV {
		ws.minW = make([]uint64, nV)
	}
	ws.labels = ws.labels[:0]
	ws.dstamp++
	return ws.dstamp
}

// offer folds the non-witness proposal a→b into epoch st's minima.
func (ws *collectScratch) offer(st, a, b int32) {
	if ws.minAt[a] != st {
		ws.minAt[a] = st
		ws.minB[a] = b
		ws.labels = append(ws.labels, a)
	} else if b < ws.minB[a] {
		ws.minB[a] = b
	}
}

// claim stamps label a into epoch st once the minima are built, reporting
// whether the epoch had not seen it: a list filtered through claim keeps
// each label that no proposal and no earlier entry names, once.
func (ws *collectScratch) claim(st, a int32) bool {
	if ws.minAt[a] == st {
		return false
	}
	ws.minAt[a] = st
	return true
}

// unclaimed filters xs in place through claim.
func (ws *collectScratch) unclaimed(st int32, xs []int32) []int32 {
	out := xs[:0]
	for _, x := range xs {
		if ws.claim(st, x) {
			out = append(out, x)
		}
	}
	return out
}

// offerW is offer under the witness order: ties on b break on the packed
// witness edge w = wu<<32|wv, exactly betterProp's (b, wu, wv).
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
	sc.need = dropSlice(sc.need, bound, &n)
	sc.ndtmp = dropSlice(sc.ndtmp, bound, &n)
	sc.needBuf = dropSlice(sc.needBuf, bound, &n)
	sc.emitTmp = dropSlice(sc.emitTmp, bound, &n)
	sc.ptmp = dropSlice(sc.ptmp, bound, &n)
	pr.hooked[i] = dropSlice(pr.hooked[i], len(pr.aliveList[i]), &n)
	if pr.fs != nil {
		// Expanding phases rebuild both lists from a fresh adjacency round
		// (and never hold witness pairs).
		sc.k1s = dropSlice(sc.k1s, bound, &n)
		sc.nextNeed = dropSlice(sc.nextNeed, bound, &n)
	} else {
		// A Borůvka phase precollected the next phase's contents into them.
		sc.pairs = trimSlice(sc.pairs, &n)
		sc.k1s = trimSlice(sc.k1s, &n)
		sc.nextNeed = trimSlice(sc.nextNeed, &n)
	}
	if a := &pr.arena[i]; trimmable(cap(a.buf), bound) {
		n++
		a.buf = nil
	}
	return n
}

// payloadSlab is one node's outgoing-payload arena, reset every round.
// grab carves a fixed-size chunk; the engine copies payloads into the
// receiver inboxes during ExecuteAsync, so chunks are dead by the time
// the next round resets the slab.
type payloadSlab struct{ buf []uint64 }

func (pa *payloadSlab) grab(n int) []uint64 {
	if n == 0 {
		return nil
	}
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

// proto is the driver state of one protocol run. Node-level slices are
// indexed by compute index (position in ComputeNodes); vertex/label arrays
// by renumbered vertex index.
type proto struct {
	e       *netsim.Engine
	nodes   []topology.NodeID
	nodeIdx []int32 // NodeID -> compute index
	steps   []place.UpStep
	weights []float64
	hier    *place.Hierarchy
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
	bestW   []uint64 // packed witness edge wu<<32|wv
	parAt   []int32
	parPtr  []int32
	rootAt  []int32
	rootVal []int32

	// Jump-answer snapshot, stamped per jump iteration and keyed by hooked
	// label a (home-partitioned, so the parallel read epoch writes each
	// entry from exactly one shard): the answer a's home derives for a's
	// current pointer target from the frozen pre-iteration state — the
	// same values the reply messages on the wire carry.
	jstamp int32
	jrAt   []int32
	jrVal  []int32
	jrRoot []bool

	homedVerts [][]int32 // per home: registered vertices homed here (sorted)
	aliveList  [][]int32 // per home: alive labels (sorted, shrinks per phase)
	hooked     [][]int32 // per home: this phase's unresolved hooked labels

	forest [][]Edge // witness edges per home (witness mode)

	scr   []nodeScratch
	arena []payloadSlab

	// The compute plane: receipt loops and collection walks shard across
	// pool workers by home index, with per-shard collection scratch and
	// error slots so the parallel relabel stays race-free and its first
	// error (in home order) survives the merge.
	pool   *par.Pool
	wscr   []collectScratch
	relErr []error
	mTrims *obs.Counter
}

// round executes one planned exchange with fn planning each compute node's
// sends. Accounting of the previous round overlaps the planning (the
// engine pipelines behind ExecuteAsync); accounting only reads payload
// lengths and the engine copies payloads into the receiver inboxes during
// ExecuteAsync, so one arena per node suffices and each round reuses it.
func (pr *proto) round(fn func(i int, out *netsim.Outbox)) {
	for i := range pr.arena {
		pr.arena[i].buf = pr.arena[i].buf[:0]
	}
	x := pr.e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		fn(int(pr.nodeIdx[v]), out)
	})
	x.ExecuteAsync()
}

func (pr *proto) slab(i int) *payloadSlab { return &pr.arena[i] }

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

// sweepNeeds sends every node's lookup needs to the label homes, sorted and
// distinct, one message per home. Under a combining schedule the needs are
// first unioned along the hierarchy's paying blocks, deepest level first:
// members push theirs to the level's combiner, which carries the union
// upward, so a label needed at many members crosses each engaged cut once
// per block. A combiner also keeps who asked for what (copied: inbox
// payloads are only valid for one round), for the down-sweep to answer.
func (pr *proto) sweepNeeds() {
	// The first round planned, whichever it is, orders the lists.
	ordered := func(i int, first bool) []int32 {
		sc := &pr.scr[i]
		if first {
			sc.nextNeed = pr.sortDedup(i, sc.nextNeed)
		}
		return sc.nextNeed
	}
	for si, st := range pr.steps {
		pr.round(func(i int, out *netsim.Outbox) {
			if nd := ordered(i, si == 0); st.Target[i] != i && len(nd) > 0 {
				out.Send(pr.nodes[st.Target[i]], tagLookupUp, pr.encodeIndices(i, nd))
			}
		})
		pr.pool.ForEach("cc lookup up receipt", len(pr.nodes), func(i int) {
			sc := &pr.scr[i]
			if st.Target[i] != i {
				sc.nextNeed = sc.nextNeed[:0] // forwarded up
				return
			}
			ib := pr.e.Inbox(pr.nodes[i])
			n := ib.KeyCount(tagLookupUp)
			if n == 0 {
				return
			}
			all := slices.Grow(sc.nextNeed, n)
			sc.needBuf = slices.Grow(sc.needBuf, n)
			for mi := 0; mi < ib.Len(); mi++ {
				msg := ib.At(mi)
				if msg.Tag != tagLookupUp {
					continue
				}
				from := len(all)
				for _, xk := range msg.Keys {
					all = append(all, int32(xk))
				}
				lo := int32(len(sc.needBuf))
				sc.needBuf = append(sc.needBuf, all[from:]...)
				sc.members[si] = append(sc.members[si], memberNeed{from: msg.From, lo: lo, hi: int32(len(sc.needBuf))})
			}
			sc.nextNeed = pr.sortDedup(i, all)
		})
	}
	pr.round(func(i int, out *netsim.Outbox) {
		pr.emitIndexGroups(i, out, tagLookupQ, ordered(i, len(pr.steps) == 0))
	})
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
// the next phase's planning rounds will send: the per-label proposal minima
// of its active edges, label-ascending as the wire carries them, and the
// distinct lookup needs — active endpoint labels plus homed vertex labels,
// which the lookup planning orders. The stamped arrays (owned by the calling
// pool shard) combine in O(1) per candidate, so only the distinct labels
// are ever ordered (sortIndices), and the lists are built at their final
// size.
func (pr *proto) collectNext(i int, ws *collectScratch) {
	sc := &pr.scr[i]
	st := ws.begin(len(pr.label), pr.witness)
	if pr.witness {
		for _, ed := range pr.active[i] {
			w := uint64(uint32(ed.wu))<<32 | uint64(uint32(ed.wv))
			ws.offerW(st, ed.a, ed.b, w)
			ws.offerW(st, ed.b, ed.a, w)
		}
	} else {
		for _, ed := range pr.active[i] {
			ws.offer(st, ed.a, ed.b)
			ws.offer(st, ed.b, ed.a)
		}
	}
	pr.buildProps(i, ws)
	// The epoch's labels are exactly the active endpoint labels; the minima
	// are built, so the homed labels dedup against the same stamps.
	nd := append(slices.Grow(sc.nextNeed[:0], len(ws.labels)+len(pr.homedVerts[i])), ws.labels...)
	for _, v := range pr.homedVerts[i] {
		if r := pr.label[v]; ws.claim(st, r) {
			nd = append(nd, r)
		}
	}
	sc.nextNeed = nd
}

// collectFirst builds phase 1's planning inputs from the initial placement,
// before any vertex is homed: label[v] is v, so collectNext's proposals and
// lookup needs are the active endpoints as they are (a home resolves its
// own vertices' phase-1 roots itself, and looks none of them up). The local
// vertices no proposal names — those only self-loops mention here — stay in
// need, sorted, as vertex entries for phase 1's propose sweep to carry to
// their homes.
func (pr *proto) collectFirst() {
	pr.pool.Blocks("cc collect init", len(pr.nodes), func(shard, lo, hi int) {
		ws := &pr.wscr[shard]
		for i := lo; i < hi; i++ {
			pr.collectNext(i, ws)
			pr.scr[i].need = pr.sortDedup(i, ws.unclaimed(ws.dstamp, pr.scr[i].need))
		}
	})
}

// mergeProps folds the proposals node i's members sent up into the
// carrier's own minima, leaving the union label-ascending with one entry
// per label: the carrier's list seeds a fresh epoch, the members' entries
// are offered into it, and the list is rebuilt from the combined minima.
// With first, the vertex entries are merged the same way, and an entry is
// dropped once a proposal names its label: the proposal registers it.
func (pr *proto) mergeProps(i int, ws *collectScratch, ib netsim.Inbox, first bool) {
	sc := &pr.scr[i]
	st := ws.begin(len(pr.label), pr.witness)
	for _, p := range sc.pairs { // empty unless witness
		ws.offerW(st, int32(p.k1>>32), int32(uint32(p.k1)), p.k2)
	}
	for _, k := range sc.k1s { // empty when witness
		ws.offer(st, int32(k>>32), int32(uint32(k)))
	}
	for mi := 0; mi < ib.Len(); mi++ {
		m := ib.At(mi)
		if m.Tag != tagProposeUp {
			continue
		}
		if pr.witness {
			for k := 0; k+4 <= len(m.Keys); k += 4 {
				ws.offerW(st, int32(m.Keys[k]), int32(m.Keys[k+1]), m.Keys[k+2]<<32|m.Keys[k+3])
			}
		} else {
			for k := 0; k+2 <= len(m.Keys); k += 2 {
				ws.offer(st, int32(m.Keys[k]), int32(m.Keys[k+1]))
			}
		}
	}
	pr.buildProps(i, ws)
	if !first {
		return
	}
	for mi := 0; mi < ib.Len(); mi++ {
		if m := ib.At(mi); m.Tag == tagVertexUp {
			for _, xk := range m.Keys {
				sc.need = append(sc.need, int32(xk))
			}
		}
	}
	sc.need = pr.sortDedup(i, ws.unclaimed(st, sc.need))
}

// buildProps rebuilds node i's proposal list from the epoch's combined
// minima: the offered labels, distinct already, are put in order by
// sortIndices, and the list is written once, at its final size, in the
// label-ascending order every proposal message carries.
func (pr *proto) buildProps(i int, ws *collectScratch) {
	sc := &pr.scr[i]
	ws.labels = sortIndices(ws.labels, len(pr.label), &ws.bm, &ws.ltmp)
	if pr.witness {
		prs := slices.Grow(sc.pairs[:0], len(ws.labels))
		for _, a := range ws.labels {
			prs = append(prs, propPair{k1: uint64(uint32(a))<<32 | uint64(uint32(ws.minB[a])), k2: ws.minW[a]})
		}
		sc.pairs = prs
	} else {
		ks := slices.Grow(sc.k1s[:0], len(ws.labels))
		for _, a := range ws.labels {
			ks = append(ks, uint64(uint32(a))<<32|uint64(uint32(ws.minB[a])))
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

// propStride is the wire stride of one proposal.
func (pr *proto) propStride() int {
	if pr.witness {
		return 4
	}
	return 2
}

// encodeProps serializes node i's sorted proposals (ascending label) into
// an arena-backed payload.
func (pr *proto) encodeProps(i int) []uint64 {
	if pr.witness {
		prs := pr.scr[i].pairs
		outBuf := pr.slab(i).grab(4 * len(prs))
		k := 0
		for _, p := range prs {
			outBuf[k] = p.k1 >> 32
			outBuf[k+1] = p.k1 & 0xFFFFFFFF
			outBuf[k+2] = p.k2 >> 32
			outBuf[k+3] = p.k2 & 0xFFFFFFFF
			k += 4
		}
		return outBuf
	}
	ks := pr.scr[i].k1s
	outBuf := pr.slab(i).grab(2 * len(ks))
	for j, k := range ks {
		outBuf[2*j] = k >> 32
		outBuf[2*j+1] = k & 0xFFFFFFFF
	}
	return outBuf
}

// propose turns every active edge into min-neighbor proposals for both
// endpoint labels, min-combines them locally (and per block per level
// under a combining schedule), delivers them to the label homes, and
// min-merges them into the best-proposal arrays. The first sweep of a run
// also registers the vertices: homes enroll every label a proposal names,
// and the vertices no proposal names travel beside the proposals as 1-word
// vertex entries, which combiners drop once they hold a proposal for them.
func (pr *proto) propose() {
	// Phase 1's sweep, or phase 0's on an input that runs no phase.
	first := pr.phase <= 1
	for si := range pr.steps {
		st := pr.steps[si]
		pr.round(func(i int, out *netsim.Outbox) {
			if st.Target[i] == i {
				return
			}
			to := pr.nodes[st.Target[i]]
			if pr.numProps(i) > 0 {
				out.Send(to, tagProposeUp, pr.encodeProps(i))
			}
			if first && len(pr.scr[i].need) > 0 {
				out.Send(to, tagVertexUp, pr.encodeIndices(i, pr.scr[i].need))
			}
		})
		pr.pool.Blocks("cc propose up receipt", len(pr.nodes), func(shard, lo, hi int) {
			ws := &pr.wscr[shard]
			for i := lo; i < hi; i++ {
				sc := &pr.scr[i]
				if st.Target[i] != i {
					sc.pairs, sc.k1s = sc.pairs[:0], sc.k1s[:0] // forwarded up
					if first {
						sc.need = sc.need[:0]
					}
					continue
				}
				ib := pr.e.Inbox(pr.nodes[i])
				if ib.KeyCount(tagProposeUp) > 0 || first && ib.KeyCount(tagVertexUp) > 0 {
					pr.mergeProps(i, ws, ib, first)
				}
			}
		})
	}
	pr.round(func(i int, out *netsim.Outbox) {
		pr.emitProposals(i, out)
		if first {
			pr.emitIndexGroups(i, out, tagVertex, pr.scr[i].need)
		}
	})
	// Proposals and vertex entries target the label's home, so shard i
	// min-merges and enrolls only entries homed at node i.
	stride := pr.propStride()
	pr.pool.ForEach("cc propose receipt", len(pr.nodes), func(i int) {
		ib := pr.e.Inbox(pr.nodes[i])
		for mi := 0; mi < ib.Len(); mi++ {
			m := ib.At(mi)
			if m.Tag == tagVertex {
				for _, xk := range m.Keys {
					pr.enroll(i, int32(xk))
				}
				continue
			}
			if m.Tag != tagPropose {
				continue
			}
			if first {
				for k := 0; k+stride <= len(m.Keys); k += stride {
					pr.enroll(i, int32(m.Keys[k]))
				}
			}
			if pr.witness {
				for k := 0; k+4 <= len(m.Keys); k += 4 {
					a, b := int32(m.Keys[k]), int32(m.Keys[k+1])
					w := m.Keys[k+2]<<32 | m.Keys[k+3]
					if pr.bestAt[a] != pr.phase || b < pr.bestB[a] ||
						(b == pr.bestB[a] && w < pr.bestW[a]) {
						pr.bestAt[a] = pr.phase
						pr.bestB[a] = b
						pr.bestW[a] = w
					}
				}
			} else {
				for k := 0; k+2 <= len(m.Keys); k += 2 {
					a, b := int32(m.Keys[k]), int32(m.Keys[k+1])
					if pr.bestAt[a] != pr.phase || b < pr.bestB[a] {
						pr.bestAt[a] = pr.phase
						pr.bestB[a] = b
						pr.bestW[a] = 0
					}
				}
			}
		}
		if first {
			pr.sortEnrolled(i)
		}
	})
}

// emitProposals sends node i's per-label minima to the label homes, one
// message per nonempty home, labels ascending within each — the minima are
// already label-ascending, so the stable home radix preserves the wire
// order. The minima lists are reordered in place; the next phase rebuilds
// them from scratch.
func (pr *proto) emitProposals(i int, out *netsim.Outbox) {
	if pr.numProps(i) == 0 {
		return
	}
	sc := &pr.scr[i]
	stride := pr.propStride()
	if pr.witness {
		ps := sc.pairs
		sortByHome(ps, &sc.ptmp, func(p propPair) int32 { return pr.homeOf[int32(p.k1>>32)] }, len(pr.nodes))
		for s := 0; s < len(ps); {
			h := pr.homeOf[int32(ps[s].k1>>32)]
			e := s + 1
			for e < len(ps) && pr.homeOf[int32(ps[e].k1>>32)] == h {
				e++
			}
			batch := pr.slab(i).grab(stride * (e - s))[:0]
			for k := s; k < e; k++ {
				batch = append(batch,
					ps[k].k1>>32, ps[k].k1&0xFFFFFFFF, ps[k].k2>>32, ps[k].k2&0xFFFFFFFF)
			}
			out.Send(pr.nodes[h], tagPropose, batch)
			s = e
		}
		return
	}
	ks := sc.k1s
	sortByHome(ks, &sc.k1tmp, func(k uint64) int32 { return pr.homeOf[int32(k>>32)] }, len(pr.nodes))
	for s := 0; s < len(ks); {
		h := pr.homeOf[int32(ks[s]>>32)]
		e := s + 1
		for e < len(ks) && pr.homeOf[int32(ks[e]>>32)] == h {
			e++
		}
		batch := pr.slab(i).grab(stride * (e - s))[:0]
		for k := s; k < e; k++ {
			batch = append(batch, ks[k]>>32, ks[k]&0xFFFFFFFF)
		}
		out.Send(pr.nodes[h], tagPropose, batch)
		s = e
	}
}

// hook decides each alive label's fate from its best proposal: labels with
// a smaller neighbor label hook onto it (recording the witness edge in
// witness mode); the rest are roots. Returns the number of hooked labels.
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
						w := pr.bestW[a]
						pr.forest[i] = append(pr.forest[i], Edge{U: pr.ids[w>>32], V: pr.ids[w&0xFFFFFFFF]})
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
// iterated pointer halving: each iteration, the home of an unresolved
// label asks the home of its current pointer target either for the root
// (when the target is resolved) or for the target's own pointer. Pointers
// strictly decrease along hooks, so the loop terminates in O(log chain)
// iterations.
func (pr *proto) jump(unresolved int) error {
	for iter := 0; unresolved > 0; iter++ {
		if iter == maxJumpIters {
			return fmt.Errorf("graph: pointer jumping did not converge after %d iterations", maxJumpIters)
		}
		// Queries: one per distinct pointer target per node.
		pr.round(func(i int, out *netsim.Outbox) {
			qs := pr.scr[i].need[:0]
			for _, a := range pr.hooked[i] {
				qs = append(qs, pr.parPtr[a])
			}
			qs = pr.sortDedup(i, qs)
			pr.scr[i].need = qs
			pr.emitIndexGroups(i, out, tagJumpQ, qs)
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
				nr, ns := 0, 0
				for _, qk := range m.Keys {
					q := int32(qk)
					if pr.rootAt[q] == pr.phase {
						nr++
					} else if pr.parAt[q] == pr.phase {
						ns++
					}
				}
				roots := pr.slab(j).grab(2 * nr)
				stepsBuf := pr.slab(j).grab(2 * ns)
				kr, ks := 0, 0
				for _, qk := range m.Keys {
					q := int32(qk)
					if pr.rootAt[q] == pr.phase {
						roots[kr] = qk
						roots[kr+1] = uint64(uint32(pr.rootVal[q]))
						kr += 2
					} else if pr.parAt[q] == pr.phase {
						stepsBuf[ks] = qk
						stepsBuf[ks+1] = uint64(uint32(pr.parPtr[q]))
						ks += 2
					}
				}
				if nr > 0 {
					out.Send(m.From, tagJumpRoot, roots)
				}
				if ns > 0 {
					out.Send(m.From, tagJumpStep, stepsBuf)
				}
			}
		})
		// Receipt, in two epochs with a barrier between. Read epoch: every
		// hooked label's home derives the answer for the label's pointer
		// target from the frozen pre-iteration state — exactly the values
		// the reply messages carry, keyed by the hooked label so every
		// snapshot entry is written by one shard (the wire is accounted by
		// the engine; decoding it would only re-read these same arrays).
		// Write epoch: each label advances from its own snapshot entry, so
		// no shard ever reads parent state another shard is rewriting.
		pr.jstamp++
		st := pr.jstamp
		pr.pool.ForEach("cc jump snapshot", len(pr.nodes), func(i int) {
			for _, a := range pr.hooked[i] {
				q := pr.parPtr[a]
				if pr.rootAt[q] == pr.phase {
					pr.jrAt[a] = st
					pr.jrRoot[a] = true
					pr.jrVal[a] = pr.rootVal[q]
				} else if pr.parAt[q] == pr.phase {
					pr.jrAt[a] = st
					pr.jrRoot[a] = false
					pr.jrVal[a] = pr.parPtr[q]
				}
			}
		})
		unresolved = int(pr.pool.Sum("cc jump advance", len(pr.nodes), func(_, lo, hi int) int64 {
			var left int64
			for i := lo; i < hi; i++ {
				keep := pr.hooked[i][:0]
				for _, a := range pr.hooked[i] {
					if pr.jrAt[a] == st {
						if pr.jrRoot[a] {
							pr.rootAt[a] = pr.phase
							pr.rootVal[a] = pr.jrVal[a]
						} else {
							pr.parPtr[a] = pr.jrVal[a]
						}
					}
					if pr.rootAt[a] != pr.phase {
						keep = append(keep, a)
					}
				}
				pr.hooked[i] = keep
				left += int64(len(keep))
			}
			return left
		}))
	}
	return nil
}

// lookups fetches the phase roots every node needs — the endpoint labels
// of its active edges plus the current labels of its homed vertices,
// precollected distinct by collectNext. Direct mode is a query/reply pair;
// under a combining schedule the queries are deduplicated on the way up
// (sweepNeeds), the top carriers query the homes once per distinct label, and
// the answers fan back down the same chain, so a hot label's root crosses
// each engaged cut once per block per level.
//
// Every alive label's root is resolved once jumping finishes, so the
// rootAt/rootVal arrays already hold exactly the answers the wire carries;
// replies are generated from them directly and the delivered payloads need
// no per-node answer table — the messages exist for the cost model, which
// accounts them identically to the map path.
func (pr *proto) lookups() {
	if len(pr.steps) > 0 {
		pr.pool.ForEach("cc lookup reset", len(pr.nodes), func(i int) {
			sc := &pr.scr[i]
			sc.needBuf = sc.needBuf[:0]
			if cap(sc.members) < len(pr.steps) {
				sc.members = make([][]memberNeed, len(pr.steps))
			}
			sc.members = sc.members[:len(pr.steps)]
			for s := range sc.members {
				sc.members[s] = sc.members[s][:0]
			}
		})
	}
	pr.sweepNeeds()

	// Homes answer every queried label with its resolved root.
	pr.round(func(j int, out *netsim.Outbox) {
		ib := pr.e.Inbox(pr.nodes[j])
		for mi := 0; mi < ib.Len(); mi++ {
			if m := ib.At(mi); m.Tag == tagLookupQ {
				sendRoots(pr, j, out, m.From, tagLookupA, m.Keys)
			}
		}
	})

	// Down-sweep, coarsest level first: combiners answer each recorded
	// member exactly what it asked for. By the time a level replies, every
	// label a member asked for is resolved, so the phase-root arrays hold
	// precisely the answers the combiner received from above.
	for s := len(pr.steps) - 1; s >= 0; s-- {
		pr.round(func(j int, out *netsim.Outbox) {
			for _, mn := range pr.scr[j].members[s] {
				sendRoots(pr, j, out, mn.from, tagLookupDown, pr.scr[j].needBuf[mn.lo:mn.hi])
			}
		})
	}
}

// sendRoots answers, from node j, the asked labels that are resolved this
// phase: one [label, root, ...] message, none when nothing is resolved.
func sendRoots[T int32 | uint64](pr *proto, j int, out *netsim.Outbox, to topology.NodeID, tag netsim.Tag, asked []T) {
	cnt := 0
	for _, a := range asked {
		if pr.rootAt[int32(a)] == pr.phase {
			cnt++
		}
	}
	if cnt == 0 {
		return
	}
	reply := pr.slab(j).grab(2 * cnt)[:0]
	for _, a := range asked {
		if pr.rootAt[int32(a)] == pr.phase {
			reply = append(reply, uint64(uint32(a)), uint64(uint32(pr.rootVal[int32(a)])))
		}
	}
	out.Send(to, tag, reply)
}

// relabel rewrites every active edge onto the phase roots, dropping edges
// that became internal, updates the homed vertex labels, retires the
// labels that hooked, pre-collects the next phase's proposal minima and
// lookup needs while the state is hot, and steps the scratch capacities
// down with the contraction. The walk shards by home across the pool; the
// root arrays are frozen (read-only) here, every write is home-local, and
// each shard keeps its first error so the merge can return the first
// failure in home order — identical to the serial walk.
func (pr *proto) relabel() error {
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
				pr.collectNext(i, ws)
			}
			nt += pr.trimScratch(i)
		}
		return nt
	})
	for _, err := range pr.relErr {
		if err != nil {
			return err
		}
	}
	pr.mTrims.Add(trims)
	return nil
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
	var hier *place.Hierarchy
	if v.aware {
		if hier = place.HierarchyFor(tr); hier != nil && !v.expand {
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
		weights:    weights,
		hier:       hier,
		witness:    v.witness,
		ids:        ids,
		idToIdx:    idToIdx,
		homeOf:     homeOf,
		active:     make([][]workEdge, p),
		label:      make([]int32, nV),
		registered: make([]bool, nV),
		bestAt:     make([]int32, nV),
		bestB:      make([]int32, nV),
		bestW:      make([]uint64, nV),
		parAt:      make([]int32, nV),
		parPtr:     make([]int32, nV),
		rootAt:     make([]int32, nV),
		rootVal:    make([]int32, nV),
		jrAt:       make([]int32, nV),
		jrVal:      make([]int32, nV),
		jrRoot:     make([]bool, nV),
		homedVerts: make([][]int32, p),
		aliveList:  make([][]int32, p),
		hooked:     make([][]int32, p),
		scr:        make([]nodeScratch, p),
		pool:       pool,
		wscr:       make([]collectScratch, pool.Workers()),
		relErr:     make([]error, pool.Workers()),
		mTrims:     e.Metrics().Counter("graph.cc.scratch_trims"),
	}
	pr.arena = make([]payloadSlab, p)
	if v.witness {
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
