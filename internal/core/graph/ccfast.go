package graph

import (
	"slices"

	"topompc/internal/netsim"
	"topompc/internal/par"
)

// cc-fast: log-diameter connectivity by budgeted graph exponentiation — the
// expanding phase kind of the contraction loop (contract, cc.go).
//
// A Borůvka phase pays the full sequence — propose, hook, jump, answer,
// relabel — to halve the label count, so round count grows with log(n)
// times the per-phase round cost, and every round crosses the topology's
// weakest cuts again. The MPC literature (Andoni et al., FOCS 2018;
// Behnezhad et al., FOCS 2019) cuts the phase count with neighborhood
// exponentiation: vertices learn their 2^k-hop neighborhood by doubling, so
// one phase contracts entire low-diameter regions at once.
//
// This file is the topology-aware, budgeted variant: how an expanding phase
// learns its proposals (expand) and publishes its roots (pushRoots).
//
//   - One adjacency round takes the place of cc's propose sweep and, in
//     phase 1, registers the vertices the way that sweep does: holders
//     ship each distinct directed endpoint pair (a, b) — packed two
//     indices per word — to a's home, which registers a and seeds its
//     known-set with the b smallest neighbor labels.
//   - Doubling rounds then exponentiate: every alive label pushes its
//     known-set to the homes of the set's members, which fold the arrivals
//     into their own sets, again keeping only the b smallest. After k
//     rounds a label's set samples its ≤2^k-hop neighborhood, biased
//     toward small labels — exactly the labels worth hooking onto.
//     Truncation to b never breaks correctness: the contraction below
//     works from the untruncated edges at the holders; a lossy known-set
//     only means less contraction this phase.
//   - Budgets bound the traffic: each vertex sends at most b known labels
//     to at most b targets, and a phase stops doubling after
//     fastMaxDoubling rounds or as soon as a round changes no set.
//   - Hook, pointer-jump, and relabel are the loop's own — the known-set
//     minimum feeds the same best-proposal arrays a Borůvka phase fills
//     from propose messages — and one subscription push of the phase roots
//     (pushRoots) replaces the answer rounds back down the propose sweep.
//
// Every step is a pure function of the input: no sampling, no seed beyond
// the one that hashes vertices to homes.
//
// The result is byte-comparable to CC's: canonical minimum labels, same
// Result shape, verified against the union-find reference.
//
// Its cost is not quite comparable: the adjacency, doubling and pushRoots
// rounds pack two 32-bit dense indices into one word (a<<32|b). The
// Borůvka path carries one index per word and the map oracle one 64-bit id
// per word, so they would run unchanged over ids of any width; these rounds
// would not, and cc-fast's figure on them is optimistic against cc's.

// The exponentiation budgets, the measured optimum of the scale sweep: b=8
// balances known-set reach against push volume, and three doubling rounds
// suffice for one-phase convergence on G(n,p) up to 10⁶ vertices (more
// rounds only add cost once the sets stabilize).
const (
	// fastBudget is b, the per-label known-set capacity and per-round
	// fanout bound: a label keeps the b smallest labels it has seen and
	// sends at most b·b keys per doubling round.
	fastBudget = 8
	// fastMaxDoubling caps the doubling rounds of one phase.
	fastMaxDoubling = 3
)

// fastState is the exponentiation state bolted onto proto. Known-sets
// live in one flat phase-stamped arena: with b = fastBudget, label a's set
// is the ascending slice knowBuf[a·b : a·b+knowLen[a]], valid when
// knowAt[a] equals the phase — no clearing between phases, matching the
// stamped best/parent arrays of the Borůvka path.
type fastState struct {
	knowBuf []int32
	knowLen []int32
	knowAt  []int32

	// dblStamp counts knowledge rounds (adjacency + doubling) across the
	// run; changedAt[a] is the stamp of the last round that changed a's
	// set. A label whose set did not change since its last push would send
	// the identical payload to the identical targets, so it stays silent —
	// the skip is lossless and lets stabilized regions go quiet.
	dblStamp  int32
	changedAt []int32

	// newAt stamps each known-set slot with the round its entry arrived,
	// maintained in lockstep with knowBuf: pushes send the full set to
	// targets that just entered the set and only the fresh arrivals to
	// targets that already held their copy — every (item, target) pair
	// still crosses the wire exactly once per phase.
	newAt []int32

	// evictBuf records, per label, the members evicted from its set in the
	// last receipt round (up to b, stamped by evictAt). The labels that
	// displace a member are exactly the smaller labels it still needs to
	// hook past its own value, and they arrive in the round the member
	// leaves the target list — so the next push says goodbye: evicted
	// members receive the arrivals that displaced them, once. Without this
	// the smallest vertices of a region starve the moment their neighbors
	// learn smaller labels, survive as false local minima, and force an
	// extra contraction phase.
	evictBuf []int32
	evictLen []int32
	evictAt  []int32

	// subs records, per home, who asked about each label this phase: every
	// adjacency message subscribes its sender to the labels it mentioned,
	// packed sender-compute-index<<32|label. After pointer jumping, homes
	// push each subscribed label's root straight back — no query round.
	subs [][]uint64

	dblRounds int // doubling rounds this phase, for graph.ccfast.doubling_rounds
}

// newFastState sizes the expansion state for nV labels over p homes.
func newFastState(nV, p int) *fastState {
	fs := &fastState{
		knowBuf:   make([]int32, nV*fastBudget),
		knowLen:   make([]int32, nV),
		knowAt:    make([]int32, nV),
		changedAt: make([]int32, nV),
		newAt:     make([]int32, nV*fastBudget),
		evictBuf:  make([]int32, nV*fastBudget),
		evictLen:  make([]int32, nV),
		evictAt:   make([]int32, nV),
		subs:      make([][]uint64, p),
	}
	for a := range fs.evictAt {
		fs.evictAt[a] = -1
		fs.changedAt[a] = -1
	}
	return fs
}

// expand is how an expanding phase learns its proposals: one adjacency
// round seeds the known-sets (phase 1's also registers the vertices), then
// doubling rounds exponentiate them — until a round changes nothing, or at
// the cap — and every known-set minimum becomes its label's proposal.
func (pr *proto) expand() {
	fs := pr.fs
	fs.dblStamp++
	pr.adjacency()
	fs.dblRounds = 0
	for changed := -1; fs.dblRounds < fastMaxDoubling && changed != 0; fs.dblRounds++ {
		pr.planDouble()
		changed = pr.double()
	}
	pr.proposeFromKnow()
}

// knowSpan returns label a's current-phase known-set (ascending).
func (fs *fastState) knowSpan(a int32, phase int32) []int32 {
	if fs.knowAt[a] != phase {
		return nil
	}
	base := int(a) * fastBudget
	return fs.knowBuf[base : base+int(fs.knowLen[a])]
}

// knowInsert folds label x into a's known-set, keeping the b smallest.
// Reports whether the set changed.
func (fs *fastState) knowInsert(a, x int32, phase int32) bool {
	if x == a {
		return false
	}
	if fs.knowAt[a] != phase {
		fs.knowAt[a] = phase
		fs.knowLen[a] = 0
	}
	n := fs.knowLen[a]
	base := int(a) * fastBudget
	s := fs.knowBuf[base : base+int(n)]
	st := fs.newAt[base : base+int(n)]
	// Sets are tiny (≤ b); scan from the top, which is also the common
	// reject path once a set is full of smaller labels.
	j := int(n)
	for j > 0 && s[j-1] > x {
		j--
	}
	if j > 0 && s[j-1] == x {
		return false
	}
	if n == fastBudget {
		if j == int(n) {
			return false // larger than everything kept
		}
		if fs.evictAt[a] != fs.dblStamp {
			fs.evictAt[a] = fs.dblStamp
			fs.evictLen[a] = 0
		}
		if l := fs.evictLen[a]; l < fastBudget {
			fs.evictBuf[base+int(l)] = s[n-1]
			fs.evictLen[a] = l + 1
		}
		copy(s[j+1:], s[j:n-1])
		copy(st[j+1:], st[j:n-1])
		s[j] = x
		st[j] = fs.dblStamp
		fs.changedAt[a] = fs.dblStamp
		return true
	}
	s = fs.knowBuf[base : base+int(n)+1]
	st = fs.newAt[base : base+int(n)+1]
	copy(s[j+1:], s[j:n])
	copy(st[j+1:], st[j:n])
	s[j] = x
	st[j] = fs.dblStamp
	fs.knowLen[a] = n + 1
	fs.changedAt[a] = fs.dblStamp
	return true
}

// adjacency is the fused registration + seeding round of one phase: every
// holder ships its distinct directed active-edge pairs (plus self-pairs:
// in phase 1 one per local vertex so isolated vertices register, in later
// phases one per homed vertex label so its home keeps a subscriber) to the
// first endpoint's home, packed one pair per key. Homes register unseen
// labels, seed their known-sets, and record every (label, sender) pair as
// a subscription — the senders are exactly the nodes that will read that
// label's phase root at relabel time, so pushRoots can answer them without
// a query round.
func (pr *proto) adjacency() {
	fs := pr.fs
	first := pr.phase == 1
	for i := range fs.subs {
		fs.subs[i] = fs.subs[i][:0]
	}
	pr.round("adjacency", func(i int, out *netsim.Outbox) {
		sc := &pr.scr[i]
		ks := sc.k1s[:0]
		if !first {
			// Duplicate labels collapse in the sort+compact below.
			for _, v := range pr.homedVerts[i] {
				r := pr.label[v]
				ks = append(ks, uint64(uint32(r))<<32|uint64(uint32(r)))
			}
		}
		for _, ed := range pr.active[i] {
			ks = append(ks,
				uint64(uint32(ed.a))<<32|uint64(uint32(ed.b)),
				uint64(uint32(ed.b))<<32|uint64(uint32(ed.a)))
		}
		ks, sc.k1tmp = par.SerialSort(ks, sc.k1tmp)
		ks = slices.Compact(ks)
		if first {
			// Self-pairs register only the local vertices no active pair
			// already mentions (self-loop-only vertices); for everyone
			// else the edge pair both registers and subscribes. sc.need
			// still holds the initial scan's endpoint pairs, one (u, v)
			// per local edge, and a non-loop edge put both its directed
			// pairs into ks above, so only loop endpoints are searched —
			// once per occurrence, as every endpoint used to be.
			n := len(ks)
			for k := 0; k+1 < len(sc.need); k += 2 {
				x := sc.need[k]
				if x != sc.need[k+1] {
					continue
				}
				hi := uint64(uint32(x)) << 32
				if j, _ := slices.BinarySearch(ks[:n], hi); j == n || ks[j]>>32 != uint64(uint32(x)) {
					ks = append(ks, hi|uint64(uint32(x)), hi|uint64(uint32(x)))
				}
			}
		}
		sc.k1s = ks
		pr.emitPacked(i, out, tagAdj, ks)
	})
	// Adjacency keys route to the high label's home, so shard i only
	// registers labels and folds known-sets homed at node i.
	pr.pool.ForEach("ccfast adjacency receipt", len(pr.nodes), func(i int) {
		ib := pr.e.Inbox(pr.nodes[i])
		for mi := 0; mi < ib.Len(); mi++ {
			m := ib.At(mi)
			if m.Tag != tagAdj {
				continue
			}
			si := uint64(uint32(pr.nodeIdx[m.From])) << 32
			lastA := int32(-1)
			for _, k := range m.Keys {
				a, b := int32(k>>32), int32(uint32(k))
				if a != lastA {
					// Keys within a message are ascending, so one
					// subscription per distinct label per sender.
					fs.subs[i] = append(fs.subs[i], si|uint64(uint32(a)))
					lastA = a
				}
				if first {
					pr.enroll(i, a)
				}
				if b != a {
					fs.knowInsert(a, b, pr.phase)
				}
			}
		}
		if first {
			pr.sortEnrolled(i)
		}
	})
}

// planDouble lays out the next exponentiation round, every node's keys into
// its own list, for double to send. Each alive label whose set changed last
// round pushes the set's smaller half to the home of every member of the
// set — to target u go the members below u, plus the sender itself when it
// is below u. Two lossless filters keep the volume
// near the information delta: labels a receiver would discard anyway
// (everything above it beyond its own set) stay off the wire — hooking only
// ever chases smaller labels, so pushing downhill loses nothing, and the set
// minimum still floods the whole basin through the members above it — and a
// target that already held its copy of the set receives only the entries
// that arrived since the last push (a target that just entered the set gets
// the full downhill slice once).
func (pr *proto) planDouble() {
	fs := pr.fs
	cur := fs.dblStamp
	// Reads the per-home sets, writes the home's own list.
	pr.pool.Blocks("ccfast plan double", len(pr.nodes), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ks := pr.scr[i].k1s[:0]
			for _, a := range pr.aliveList[i] {
				if fs.changedAt[a] != cur {
					continue
				}
				s := fs.knowSpan(a, pr.phase)
				base := int(a) * fastBudget
				st := fs.newAt[base : base+len(s)]
				for rank, u := range s {
					uNew := st[rank] == cur
					hi := uint64(uint32(u)) << 32
					if uNew && a < u {
						ks = append(ks, hi|uint64(uint32(a)))
					}
					for r2, x := range s[:rank] {
						if uNew || st[r2] == cur {
							ks = append(ks, hi|uint64(uint32(x)))
						}
					}
				}
				if fs.evictAt[a] == cur {
					// One key per goodbye: the smallest arrival of the
					// displacing round is below every member it displaced,
					// and one smaller label is all an evictee needs to hook
					// past its own value.
					gx := int32(-1)
					for r2, x := range s {
						if st[r2] == cur {
							gx = x
							break
						}
					}
					for _, u := range fs.evictBuf[base : base+int(fs.evictLen[a])] {
						// A member above the sender met the sender's own label at
						// entry, so only evictees below it can be starved.
						if u < a && gx >= 0 && gx < u {
							ks = append(ks, uint64(uint32(u))<<32|uint64(uint32(gx)))
						}
					}
				}
			}
			pr.scr[i].k1s = ks
		}
	})
}

// double sends the round planDouble laid out and folds the arrivals into
// the receivers' sets. Returns the number of set insertions.
func (pr *proto) double() int {
	fs := pr.fs
	pr.round("double", func(i int, out *netsim.Outbox) {
		pr.emitPacked(i, out, tagKnow, pr.scr[i].k1s)
	})
	fs.dblStamp++
	// Pushed keys route to the high label's home, so knowInsert only
	// touches sets homed at the receiving shard; per-home arrival order is
	// the inbox order either way, so the folds are worker-count-invariant.
	return int(pr.pool.Sum("ccfast double receipt", len(pr.nodes), func(_, lo, hi int) int64 {
		var changed int64
		for i := lo; i < hi; i++ {
			ib := pr.e.Inbox(pr.nodes[i])
			for mi := 0; mi < ib.Len(); mi++ {
				m := ib.At(mi)
				if m.Tag != tagKnow {
					continue
				}
				for _, k := range m.Keys {
					if fs.knowInsert(int32(k>>32), int32(uint32(k)), pr.phase) {
						changed++
					}
				}
			}
		}
		return changed
	}))
}

// emitPacked groups packed (hi-label routed) keys by the home of the high
// half and sends one arena-backed message per nonempty home. The stable
// home radix preserves the caller's key order on the wire.
func (pr *proto) emitPacked(i int, out *netsim.Outbox, tag netsim.Tag, ks []uint64) {
	if len(ks) == 0 {
		return
	}
	sc := &pr.scr[i]
	sortByHome(ks, &sc.k1tmp, func(k uint64) int32 { return pr.homeOf[int32(k>>32)] }, len(pr.nodes))
	for s := 0; s < len(ks); {
		h := pr.homeOf[int32(ks[s]>>32)]
		e := s + 1
		for e < len(ks) && pr.homeOf[int32(ks[e]>>32)] == h {
			e++
		}
		batch := pr.slab(i).grab(e - s)
		copy(batch, ks[s:e])
		out.Send(pr.nodes[h], tag, batch)
		s = e
	}
}

// proposeFromKnow converts every known-set minimum into the best-proposal
// arrays that hook() consumes: with zero doubling rounds this is exactly
// the least-neighbor proposal of a witness-mode Borůvka phase.
func (pr *proto) proposeFromKnow() {
	fs := pr.fs
	pr.pool.ForEach("ccfast propose", len(pr.nodes), func(i int) {
		for _, a := range pr.aliveList[i] {
			if s := fs.knowSpan(a, pr.phase); len(s) > 0 {
				pr.bestAt[a] = pr.phase
				pr.bestB[a] = s[0]
			}
		}
	})
}

// pushRoots closes the phase in a single round: every home pushes each
// subscribed label's phase root, packed label<<32|root, back to the node
// that mentioned the label in this phase's adjacency round. Adjacency
// senders are exactly the relabel readers, so the subscriptions answer
// the adjacency round the way a Borůvka phase's answer() answers its
// propose sweep, in one round. As with answer(), the receipt needs no
// processing — relabel reads the rootAt/rootVal arrays the wire answers
// mirror.
func (pr *proto) pushRoots() {
	fs := pr.fs
	pr.round("push-roots", func(i int, out *netsim.Outbox) {
		subs := fs.subs[i]
		if len(subs) == 0 {
			return
		}
		// Stable-sort by subscriber to batch one message per destination;
		// labels stay ascending within each subscriber's run.
		sortByHome(subs, &pr.scr[i].k1tmp, func(k uint64) int32 { return int32(k >> 32) }, len(pr.nodes))
		for s := 0; s < len(subs); {
			d := int32(subs[s] >> 32)
			e := s + 1
			for e < len(subs) && int32(subs[e]>>32) == d {
				e++
			}
			batch := pr.slab(i).grab(e - s)
			for k := s; k < e; k++ {
				a := int32(uint32(subs[k]))
				batch[k-s] = uint64(uint32(a))<<32 | uint64(uint32(pr.rootVal[a]))
			}
			out.Send(pr.nodes[d], tagKnow, batch)
			s = e
		}
	})
}
