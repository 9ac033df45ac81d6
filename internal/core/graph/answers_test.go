package graph

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// answerCounts tallies what checkAnswers read off the wire, so a fixture
// can insist that every kind of answer was checked.
type answerCounts struct {
	levels      int // combining levels of the run's schedule; 0 is direct
	jumpReplies int // jump replies decoded
	longReplies int // of them, answers to more than 64 queries (a bitmap of two words or more)
	rootRounds  int // root answer rounds held to their propose rounds
	homeProps   int // roots decoded from home answers to proposal messages
	homeNeeds   int // roots decoded from home answers to need messages
	downProps   int // roots decoded from combiner answers to proposal messages
	downNeeds   int // roots decoded from combiner answers to need messages
	needDrops   int // need entries a combiner dropped for a proposal it held
	homeWins    int // won bits decoded from home answers (witness mode)
	downWins    int // won bits a combiner passed down to a member
	longWins    int // won bitmaps of two words or more decoded
	forest      int // forest edges checked against their holder's edges
}

// The kinds of message a propose sweep sends: proposals and need entries
// are answered, phase 1's vertex entries only register their vertices.
const (
	sentProps = iota
	sentNeeds
	sentVertices
)

// sentMsg is one message the sweep model expects a node to send, and the
// words it takes on the wire.
type sentMsg struct {
	to     int32
	kind   int
	labels []int32
	words  int64
}

// propWords is what a proposal list takes on the wire: one word per entry,
// and one more for each entry whose b differs from the entry before's (the
// first entry's always does).
func propWords(ps []propPair) int64 {
	n := int64(len(ps))
	for k, p := range ps {
		if k == 0 || uint32(p.k1) != uint32(ps[k-1].k1) {
			n++
		}
	}
	return n
}

// sweepModel is the propose sweep worked out from the state before it:
// every node's proposals and 1-word entries pushed up the combining
// schedule — a combiner merges what its members send into its own list by
// the offer rule of the variant (firstMinima's least b in witness mode,
// componentMinima's set roots otherwise) and drops an entry once it holds
// a proposal for the label — then grouped by home. It returns, per stage
// (the up-steps, then the homes) and per node, the messages the node
// sends, in order, and the number of need entries the combiners drop.
func sweepModel(pr *proto, first bool) ([][][]sentMsg, int) {
	L := len(pr.steps)
	entryKind := sentNeeds
	if first {
		entryKind = sentVertices
	}
	props := make([][]propPair, len(pr.nodes))
	entries := make([]map[int32]bool, len(pr.nodes))
	for i := range pr.nodes {
		props[i], entries[i] = slices.Clone(pr.props(i)), map[int32]bool{}
		for _, x := range pr.scr[i].need {
			entries[i][x] = true
		}
	}
	labels := func(ps []propPair) []int32 {
		out := make([]int32, len(ps))
		for k, p := range ps {
			out[k] = int32(p.k1 >> 32)
		}
		return out
	}
	merge := firstMinima
	if !pr.witness {
		merge = componentMinima
	}
	sent := make([][][]sentMsg, L+1)
	drops := 0
	for s, st := range pr.steps {
		sent[s] = make([][]sentMsg, len(pr.nodes))
		merged := map[int]bool{}
		for i := range pr.nodes {
			to := st.Target[i]
			if to == i {
				continue
			}
			if len(props[i]) > 0 {
				sent[s][i] = append(sent[s][i], sentMsg{int32(to), sentProps, labels(props[i]), propWords(props[i])})
			}
			if len(entries[i]) > 0 {
				es := slices.Sorted(maps.Keys(entries[i]))
				sent[s][i] = append(sent[s][i], sentMsg{int32(to), entryKind, es, int64(len(es))})
			}
			props[to] = append(props[to], props[i]...)
			for x := range entries[i] {
				entries[to][x] = true
			}
			props[i], entries[i] = nil, map[int32]bool{}
			merged[to] = true
		}
		for c := range merged {
			props[c] = merge(props[c])
			for _, p := range props[c] {
				if x := int32(p.k1 >> 32); entries[c][x] {
					delete(entries[c], x)
					if !first {
						drops++
					}
				}
			}
		}
	}
	sent[L] = make([][]sentMsg, len(pr.nodes))
	for i := range pr.nodes {
		byHome := map[int32][]propPair{}
		for _, p := range props[i] {
			h := pr.homeOf[p.k1>>32]
			byHome[h] = append(byHome[h], p)
		}
		for _, h := range slices.Sorted(maps.Keys(byHome)) {
			sent[L][i] = append(sent[L][i], sentMsg{h, sentProps, labels(byHome[h]), propWords(byHome[h])})
		}
		needs := map[int32][]int32{}
		for _, x := range slices.Sorted(maps.Keys(entries[i])) {
			needs[pr.homeOf[x]] = append(needs[pr.homeOf[x]], x)
		}
		for _, h := range slices.Sorted(maps.Keys(needs)) {
			sent[L][i] = append(sent[L][i], sentMsg{h, entryKind, needs[h], int64(len(needs[h]))})
		}
	}
	return sent, drops
}

// checkAnswers runs a Borůvka variant phase by phase as contract does and
// reads every round as its receivers would:
//   - every propose round carries exactly the messages and words of
//     sweepModel's sweep, so each combiner drops what the model drops;
//   - each jump reply is decoded against the query list its asker sent that
//     home, in order: ⌈n/64⌉ bitmap words, then n values, where a set bit
//     carries the target's root and a clear one its pointer, both as they
//     stood before the iteration;
//   - each root answer round mirrors its stage's propose round, message for
//     message, less phase 1's vertex entries, and each answer is decoded
//     against the messages its asker sent that peer in the sweep, in order
//     — proposal labels first, then need entries — to one root per label
//     (readRoots), in exactly the words wireRoots encodes them in, and
//     in witness mode, before the roots of a proposal message, its won
//     bitmap of ⌈n/64⌉ words;
//   - the won bits name each hooking once: every label that hooked gets
//     exactly one set bit from its home and every other label none, no node
//     receives two bits for one label, a combiner passes each bit it
//     receives to at most one member, and each bit it keeps is one new
//     forest edge at it, in the order received, which is its least active
//     edge at the start of the phase with labels (a, bestB[a]);
//   - every phase takes (L+1) + 2j + (L+1) rounds: the propose sweep, j jump
//     iterations, and the answer back down the sweep.
//
// The driven run must equal the entry point's, result and every round, and
// in witness mode its forest has one edge per hooking.
func checkAnswers(t testing.TB, tr *topology.Tree, pl Placement, seed uint64, v variant) answerCounts {
	t.Helper()
	want, err := contract(tr, pl, seed, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := newProto(tr, pl, seed, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	L := len(pr.steps)
	n := answerCounts{levels: L}
	pr.collectFirst()
	if pr.totalActive() == 0 {
		pr.propose()
	}
	phases, hookings := 0, 0
	for pr.totalActive() > 0 {
		phases++
		pr.phase = int32(phases)
		r0 := pr.e.Report().NumRounds()
		// In witness mode, each node's active edges and forest length at
		// the start of the phase, for checkWins.
		act0 := make([][]workEdge, len(pr.nodes))
		f0 := make([]int, len(pr.nodes))
		for i := range pr.nodes {
			if v.witness {
				act0[i], f0[i] = slices.Clone(pr.active[i]), len(pr.forest[i])
			}
		}
		sent, drops := sweepModel(pr, phases == 1)
		n.needDrops += drops
		pr.propose()
		rep := pr.e.Report()
		for s := 0; s <= L; s++ {
			msgs, words := 0, int64(0)
			for _, ms := range sent[s] {
				for _, m := range ms {
					msgs++
					words += m.words
				}
			}
			if r := rep.Rounds[r0+s]; r.Messages != msgs || r.Elements != words {
				t.Fatalf("phase %d: propose round %d sent %d messages of %d words, the sweep model %d of %d",
					phases, s, r.Messages, r.Elements, msgs, words)
			}
		}

		jumps := 0
		unresolved := pr.hook()
		hookings += unresolved
		for ; unresolved > 0; jumps++ {
			rootAt, rootVal, parPtr := slices.Clone(pr.rootAt), slices.Clone(pr.rootVal), slices.Clone(pr.parPtr)
			r1 := pr.e.Report().NumRounds()
			if unresolved, err = pr.jumpOnce(); err != nil {
				t.Fatal(err)
			}
			rep := pr.e.Report()
			if q, a := rep.Rounds[r1], rep.Rounds[r1+1]; a.Messages != q.Messages {
				t.Fatalf("phase %d: %d jump replies to %d queries", phases, a.Messages, q.Messages)
			}
			for i, node := range pr.nodes {
				ib := pr.e.Inbox(node)
				for mi := 0; mi < ib.Len(); mi++ {
					m := ib.At(mi)
					if m.Tag != tagJumpA {
						continue
					}
					qs := askedOf(pr, pr.scr[i].need, pr.nodeIdx[m.From])
					words := (len(qs) + 63) / 64
					if len(m.Keys) != words+len(qs) {
						t.Fatalf("phase %d: jump reply of %d words to %d queries, want %d",
							phases, len(m.Keys), len(qs), words+len(qs))
					}
					for k, q := range qs {
						val, resolved := int32(m.Keys[words+k]), m.Keys[k/64]>>(k%64)&1 == 1
						if resolved != (rootAt[q] == pr.phase) ||
							(resolved && val != rootVal[q]) || (!resolved && val != parPtr[q]) {
							t.Fatalf("phase %d: jump answer %d for label %d reads (%v, %d)", phases, k, q, resolved, val)
						}
					}
					n.jumpReplies++
					if len(qs) > 64 {
						n.longReplies++
					}
				}
			}
		}

		// The won bits read off the wire: per node and label, the bits it
		// received, the labels of those in the order received, and the bits
		// it sent — from a home, or down from a combiner.
		recv := make([]map[int32]int, len(pr.nodes))
		recvOrder := make([][]int32, len(pr.nodes))
		fromHome := make([]map[int32]int, len(pr.nodes))
		down := make([]map[int32]int, len(pr.nodes))
		for i := range pr.nodes {
			recv[i], fromHome[i], down[i] = map[int32]int{}, map[int32]int{}, map[int32]int{}
		}
		for s := L; s >= 0; s-- {
			pr.answerStage(s)
			rep := pr.e.Report()
			up, ans := rep.Rounds[r0+s], rep.Rounds[rep.NumRounds()-1]
			unanswered := 0
			for _, ms := range sent[s] {
				for _, m := range ms {
					if m.kind == sentVertices {
						unanswered++
					}
				}
			}
			if ans.Messages != up.Messages-unanswered {
				t.Fatalf("phase %d: stage %d answered %d of %d propose messages, %d of them vertex entries",
					phases, s, ans.Messages, up.Messages, unanswered)
			}
			n.rootRounds++
			for i, node := range pr.nodes {
				pending := map[int32][]sentMsg{}
				for _, m := range sent[s][i] {
					if m.kind != sentVertices {
						pending[m.to] = append(pending[m.to], m)
					}
				}
				ib := pr.e.Inbox(node)
				for mi := 0; mi < ib.Len(); mi++ {
					m := ib.At(mi)
					if m.Tag != tagRoots {
						continue
					}
					from := pr.nodeIdx[m.From]
					q := pending[from]
					if len(q) == 0 {
						t.Fatalf("phase %d: node %d answered node %d, which sent it nothing to answer", phases, from, i)
					}
					asked := q[0]
					pending[from] = q[1:]
					words := 0
					if v.witness && asked.kind == sentProps {
						words = (len(asked.labels) + 63) / 64
					}
					want := make([]uint64, len(asked.labels))
					for k, x := range asked.labels {
						if pr.rootAt[x] != pr.phase {
							t.Fatalf("phase %d: label %d was answered without a root", phases, x)
						}
						want[k] = uint64(uint32(pr.rootVal[x]))
					}
					if w := words + rootWords(len(want), countRoots(want)); len(m.Keys) != w {
						t.Fatalf("phase %d: %d words answer %d labels, want %d", phases, len(m.Keys), len(asked.labels), w)
					}
					roots, ok := readRoots(m.Keys[words:], len(asked.labels), nil)
					if !ok {
						t.Fatalf("phase %d: %d words after %d won words do not decode to %d roots", phases, len(m.Keys), words, len(asked.labels))
					}
					for k, x := range asked.labels {
						if r := roots[k]; r != want[k] {
							t.Fatalf("phase %d: root %d for label %d reads %d, want %d", phases, k, x, r, want[k])
						}
						if words == 0 || m.Keys[k/64]>>(k%64)&1 == 0 {
							continue
						}
						recv[i][x]++
						recvOrder[i] = append(recvOrder[i], x)
						if s == L {
							fromHome[from][x]++
							n.homeWins++
						} else {
							down[from][x]++
							n.downWins++
						}
					}
					if words > 1 {
						n.longWins++
					}
					switch {
					case s == L && asked.kind == sentProps:
						n.homeProps += len(asked.labels)
					case s == L:
						n.homeNeeds += len(asked.labels)
					case asked.kind == sentProps:
						n.downProps += len(asked.labels)
					default:
						n.downNeeds += len(asked.labels)
					}
				}
				for peer, q := range pending {
					if len(q) > 0 {
						t.Fatalf("phase %d: node %d left %d messages of node %d unanswered", phases, peer, len(q), i)
					}
				}
			}
		}
		if err := pr.planFailure(); err != nil {
			t.Fatal(err)
		}
		if v.witness {
			n.forest += checkWins(t, pr, phases, act0, f0, recv, recvOrder, fromHome, down)
		}
		if got := pr.e.Report().NumRounds() - r0; got != 2*(L+1)+2*jumps {
			t.Fatalf("phase %d took %d rounds, want (L+1) + 2·j + (L+1) = %d for L = %d, j = %d",
				phases, got, 2*(L+1)+2*jumps, L, jumps)
		}
		if _, err := pr.relabel(); err != nil {
			t.Fatal(err)
		}
	}
	got := pr.assemble(phases, want.Strategy)
	if got.Phases != want.Phases || got.Checksum != want.Checksum || !slices.Equal(got.Forest, want.Forest) {
		t.Fatalf("driven run: %d phases, checksum %x; the entry point: %d, %x", got.Phases, got.Checksum, want.Phases, want.Checksum)
	}
	if g, w := serializeReport(got.Report), serializeReport(want.Report); g != w {
		t.Fatalf("driven run's rounds differ from the entry point's:\n%s\n%s", g, w)
	}
	if v.witness && len(got.Forest) != hookings {
		t.Fatalf("forest of %d edges for %d hookings", len(got.Forest), hookings)
	}
	return n
}

// checkWins holds one phase's won bits, read off the wire, to the hooking
// (see checkAnswers) and returns the number of forest edges it checked.
func checkWins(t testing.TB, pr *proto, phase int, act0 [][]workEdge, f0 []int,
	recv []map[int32]int, recvOrder [][]int32, fromHome, down []map[int32]int) int {
	t.Helper()
	for x := range pr.label {
		a := int32(x)
		hooked := pr.bestAt[a] == pr.phase && pr.bestB[a] < a
		for j := range pr.nodes {
			want := 0
			if hooked && pr.homeOf[a] == int32(j) {
				want = 1
			}
			if got := fromHome[j][a]; got != want {
				t.Fatalf("phase %d: home %d set %d won bits for label %d (hooked %v, homed at %d), want %d",
					phase, j, got, a, hooked, pr.homeOf[a], want)
			}
		}
	}
	checked := 0
	for i := range pr.nodes {
		var kept []int32
		for _, a := range recvOrder[i] {
			if recv[i][a] > 1 {
				t.Fatalf("phase %d: node %d received %d won bits for label %d", phase, i, recv[i][a], a)
			}
			if down[i][a] == 0 {
				kept = append(kept, a)
			}
		}
		for a, d := range down[i] {
			if d > recv[i][a] {
				t.Fatalf("phase %d: node %d passed %d won bits for label %d down, having received %d", phase, i, d, a, recv[i][a])
			}
		}
		added := pr.forest[i][f0[i]:]
		if len(added) != len(kept) {
			t.Fatalf("phase %d: node %d kept %d won bits and added %d forest edges", phase, i, len(kept), len(added))
		}
		for k, a := range kept {
			b := pr.bestB[a]
			var least *workEdge
			for e := range act0[i] {
				ed := &act0[i][e]
				if !(ed.a == a && ed.b == b) && !(ed.b == a && ed.a == b) {
					continue
				}
				if least == nil || ed.wu < least.wu || (ed.wu == least.wu && ed.wv < least.wv) {
					least = ed
				}
			}
			want := Edge{}
			if least != nil {
				want = Edge{U: pr.ids[least.wu], V: pr.ids[least.wv]}
			}
			if least == nil || added[k] != want {
				t.Fatalf("phase %d: node %d recorded %v for label %d hooking onto %d, its least edge between them is %v",
					phase, i, added[k], a, b, want)
			}
			checked++
		}
	}
	return checked
}

// askedOf returns, in the order sent, the labels of a query list (after the
// emit, grouped by home) that the asker sent to home h.
func askedOf(pr *proto, sent []int32, h int32) []int32 {
	var qs []int32
	for _, x := range sent {
		if pr.homeOf[x] == h {
			qs = append(qs, x)
		}
	}
	return qs
}

// answerFixture is a tapered fat tree whose weak-cut hierarchy has two
// combining levels, and a G(n,p) graph on it that takes several phases. At
// average degree 2 the graph is many small components beside a giant one,
// so even where the combiners contract what their blocks hold, the homes
// hook enough labels onto distinct targets that some jump queries to one
// home number more than 64.
func answerFixture(t *testing.T) (*topology.Tree, Placement) {
	t.Helper()
	tree, err := topology.FatTree(3, 2, 16, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := dataset.GNP(rand.New(rand.NewSource(5)), 20000, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	return tree, placeEdges(packed, tree.NumCompute())
}

// TestAnswerWordCounts holds the answer rounds to the words they need, on
// combining fixtures (cc and spanforest on a tapered fat tree, whose
// weak-cut hierarchy has two levels) and a direct one (cc-flat on the same
// tree): every root answer carries one word per label of the message it
// answers, spanforest's answers to proposal messages ⌈n/64⌉ won-bitmap
// words more, and each jump reply n + ⌈n/64⌉ for n queries. An echo of the
// labels creeping back into a reply fails here even where the map oracle,
// which would echo too, still agrees. The fixtures see every kind of
// answer: short and long jump replies, and roots for proposals and need
// entries, from the homes and, when combining, down the chain; spanforest
// decodes won bits from the homes and passed down by the combiners, some
// in bitmaps of two words or more, and checks a forest edge per kept bit.
func TestAnswerWordCounts(t *testing.T) {
	tree, pl := answerFixture(t)
	for _, tc := range []struct {
		name    string
		v       variant
		combine bool
	}{
		{"cc", variant{aware: true}, true},
		{"cc-flat", variant{}, false},
		{"spanforest", variant{aware: true, witness: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := checkAnswers(t, tree, pl, 42, tc.v)
			t.Logf("checked %+v", n)
			if combines := n.levels > 0; combines != tc.combine {
				t.Fatalf("fixture combines: %v, want %v", combines, tc.combine)
			}
			if n.jumpReplies == 0 || n.longReplies == 0 || n.rootRounds == 0 || n.homeProps == 0 || n.homeNeeds == 0 {
				t.Fatalf("checked %+v: want jump replies, some over 64 queries, and home answers to proposals and need entries", n)
			}
			if tc.combine && (n.downProps == 0 || n.downNeeds == 0) {
				t.Fatalf("checked %+v: no combiner answer to proposals or to need entries decoded", n)
			}
			if tc.v.witness && (n.homeWins == 0 || n.downWins == 0 || n.longWins == 0 || n.forest != n.homeWins) {
				t.Fatalf("checked %+v: want won bits from homes and combiners, some bitmaps over 64 entries, and a forest edge per hooking", n)
			}
		})
	}
}

// TestBoruvkaPhaseShape pins the phase's round count: on a combining
// fixture (spanforest, so witness proposals, on the tapered fat tree) and
// on the flat one (cc-flat), every Borůvka phase takes exactly (L+1) +
// 2·j + (L+1) rounds — the propose sweep, j pointer-jump iterations, the
// answer back down the sweep; checkAnswers counts them phase by phase, and
// holds the driven run equal to the entry point's. Both fixtures run phases
// past the first with homed vertices whose labels no local proposal names:
// those need entries are answered, and on the combining fixture some reach
// a combiner that holds a proposal for the label and drop there.
func TestBoruvkaPhaseShape(t *testing.T) {
	tree, pl := answerFixture(t)
	for _, tc := range []struct {
		name    string
		v       variant
		combine bool
	}{
		{"spanforest", variant{aware: true, witness: true}, true},
		{"cc-flat", variant{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := checkAnswers(t, tree, pl, 7, tc.v)
			t.Logf("checked %+v", n)
			if combines := n.levels > 0; combines != tc.combine {
				t.Fatalf("fixture combines: %v, want %v", combines, tc.combine)
			}
			if n.homeNeeds+n.downNeeds == 0 {
				t.Fatalf("checked %+v: no need entry answered", n)
			}
			if tc.combine && n.needDrops == 0 {
				t.Fatalf("checked %+v: no combiner dropped a need entry for a proposal it held", n)
			}
		})
	}
}

// phaseOneHooked runs phase 1 of a Borůvka variant up to its hooking and
// returns the state with the number of hooked labels.
func phaseOneHooked(t *testing.T, tr *topology.Tree, pl Placement, v variant, workers int) (*proto, int) {
	t.Helper()
	pr, err := newProto(tr, pl, 42, v, []netsim.Option{netsim.WithWorkers(workers)})
	if err != nil {
		t.Fatal(err)
	}
	pr.collectFirst()
	pr.phase = 1
	pr.propose()
	unresolved := pr.hook()
	if unresolved == 0 {
		t.Fatal("phase 1 hooked no label")
	}
	return pr, unresolved
}

// TestUnresolvedLookupIsNamed pins ErrUnresolvedLabel: a label a node
// proposed for that has no root this phase fails the answer, and so the
// run, by name, with direct answers and along the combining chain, at 1
// and 4 workers.
func TestUnresolvedLookupIsNamed(t *testing.T) {
	tree := testTrees(t)["fattree"]
	pl := placeEdges(shuffledPath(rand.New(rand.NewSource(3)), 200), tree.NumCompute())
	for _, v := range []variant{{aware: true}, {}} {
		for _, workers := range []int{1, 4} {
			pr, unresolved := phaseOneHooked(t, tree, pl, v, workers)
			if err := pr.jump(unresolved); err != nil {
				t.Fatal(err)
			}
			var asked int32 = -1
			for i := range pr.nodes {
				if len(pr.active[i]) > 0 {
					asked = pr.active[i][0].a
					break
				}
			}
			pr.rootAt[asked] = 0
			if err := pr.answer(); !errors.Is(err, ErrUnresolvedLabel) {
				t.Fatalf("aware=%v workers=%d: answer returned %v, want ErrUnresolvedLabel", v.aware, workers, err)
			}
		}
	}
}

// TestDanglingJumpIsNamed pins ErrDanglingPointer: a pointer whose target
// neither hooked nor stayed a root this phase fails the jump by name, at 1
// and 4 workers, instead of spinning to maxJumpIters.
func TestDanglingJumpIsNamed(t *testing.T) {
	tree := testTrees(t)["fattree"]
	pl := placeEdges(shuffledPath(rand.New(rand.NewSource(3)), 200), tree.NumCompute())
	for _, workers := range []int{1, 4} {
		pr, unresolved := phaseOneHooked(t, tree, pl, variant{aware: true}, workers)
		var q int32 = -1
		for i := range pr.nodes {
			if len(pr.hooked[i]) > 0 {
				q = pr.parPtr[pr.hooked[i][0]]
				break
			}
		}
		pr.rootAt[q], pr.parAt[q] = 0, 0
		if err := pr.jump(unresolved); !errors.Is(err, ErrDanglingPointer) {
			t.Fatalf("workers=%d: jump returned %v, want ErrDanglingPointer", workers, err)
		}
	}
}
