package graph

import (
	"errors"
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
	levels       int // combining levels of the run's schedule; 0 is direct
	jumpReplies  int // jump replies decoded
	longReplies  int // of them, answers to more than 64 queries (a bitmap of two words or more)
	lookupRounds int // lookup answer rounds held to their query rounds
	lookupRoots  int // roots decoded from direct lookup answers
}

// checkAnswers runs a Borůvka variant phase by phase as contract does and
// reads every answer round as its askers would:
//   - each jump reply is decoded against the query list its asker sent that
//     home, in order: ⌈n/64⌉ bitmap words, then n values, where a set bit
//     carries the target's root and a clear one its pointer, both as they
//     stood before the iteration;
//   - each lookup answer round carries exactly the messages and words of
//     the query round it answers: the home answer against the home query,
//     each down-sweep round against the up-sweep round of its level;
//   - in direct mode, where the home answer is the phase's last round, each
//     answer is decoded against the asker's query list: one root per label.
//
// The driven run must equal the entry point's, result and every round.
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
	n := answerCounts{levels: len(pr.steps)}
	pr.collectFirst()
	if pr.totalActive() == 0 {
		pr.propose()
	}
	phases := 0
	for pr.totalActive() > 0 {
		phases++
		pr.phase = int32(phases)
		pr.propose()
		for unresolved := pr.hook(); unresolved > 0; {
			rootAt, rootVal, parPtr := slices.Clone(pr.rootAt), slices.Clone(pr.rootVal), slices.Clone(pr.parPtr)
			r0 := pr.e.Report().NumRounds()
			if unresolved, err = pr.jumpOnce(); err != nil {
				t.Fatal(err)
			}
			rep := pr.e.Report()
			if q, a := rep.Rounds[r0], rep.Rounds[r0+1]; a.Messages != q.Messages {
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

		r0 := pr.e.Report().NumRounds()
		if err := pr.lookups(); err != nil {
			t.Fatal(err)
		}
		rep, levels := pr.e.Report(), n.levels
		pairs := [][2]int{{r0 + levels, r0 + levels + 1}} // home query, home answer
		for s := 0; s < levels; s++ {
			pairs = append(pairs, [2]int{r0 + s, r0 + 2*levels + 1 - s}) // up, down
		}
		for _, p := range pairs {
			q, a := rep.Rounds[p[0]], rep.Rounds[p[1]]
			if a.Messages != q.Messages || a.Elements != q.Elements {
				t.Fatalf("phase %d: round %d answers round %d with %d messages of %d words, the queries were %d of %d",
					phases, p[1], p[0], a.Messages, a.Elements, q.Messages, q.Elements)
			}
			n.lookupRounds++
		}
		if levels == 0 {
			for i, node := range pr.nodes {
				ib := pr.e.Inbox(node)
				for mi := 0; mi < ib.Len(); mi++ {
					m := ib.At(mi)
					if m.Tag != tagLookupA {
						continue
					}
					qs := askedOf(pr, pr.scr[i].nextNeed, pr.nodeIdx[m.From])
					if len(m.Keys) != len(qs) {
						t.Fatalf("phase %d: %d roots answer %d labels", phases, len(m.Keys), len(qs))
					}
					for k, q := range qs {
						if int32(m.Keys[k]) != pr.rootVal[q] {
							t.Fatalf("phase %d: root %d for label %d reads %d, want %d", phases, k, q, m.Keys[k], pr.rootVal[q])
						}
					}
					n.lookupRoots += len(qs)
				}
			}
		}
		if err := pr.relabel(); err != nil {
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
	return n
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

// TestAnswerWordCounts holds the answer rounds to the words they need, on a
// combining fixture (cc on a tapered fat tree, whose weak-cut hierarchy
// has two levels) and a direct one (cc-flat on the same tree): every
// lookup answer round carries exactly as many words as the queries it
// answers, and each jump reply n + ⌈n/64⌉ for n queries. An echo of the
// query creeping back into a reply fails here even where the map oracle,
// which would echo too, still agrees.
func TestAnswerWordCounts(t *testing.T) {
	tree, err := topology.FatTree(3, 2, 16, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := dataset.GNP(rand.New(rand.NewSource(5)), 12000, 0.0004)
	if err != nil {
		t.Fatal(err)
	}
	pl := placeEdges(packed, tree.NumCompute())
	for _, tc := range []struct {
		name    string
		v       variant
		combine bool
	}{
		{"cc", variant{aware: true}, true},
		{"cc-flat", variant{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := checkAnswers(t, tree, pl, 42, tc.v)
			if combines := n.levels > 0; combines != tc.combine {
				t.Fatalf("fixture combines: %v, want %v", combines, tc.combine)
			}
			if n.jumpReplies == 0 || n.longReplies == 0 || n.lookupRounds == 0 {
				t.Fatalf("checked %+v: want jump replies, some over 64 queries, and lookup rounds", n)
			}
			if !tc.combine && n.lookupRoots == 0 {
				t.Fatalf("checked %+v: no direct lookup answer decoded", n)
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

// TestUnresolvedLookupIsNamed pins ErrUnresolvedLabel: a label a node asks
// for that has no root this phase fails lookups, and so the run, by name,
// with direct answers and along the combining chain, at 1 and 4 workers.
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
			if err := pr.lookups(); !errors.Is(err, ErrUnresolvedLabel) {
				t.Fatalf("aware=%v workers=%d: lookups returned %v, want ErrUnresolvedLabel", v.aware, workers, err)
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
