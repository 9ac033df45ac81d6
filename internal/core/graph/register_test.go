package graph

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"topompc/internal/netsim"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// firstSweepInputs are the inputs phase 1's propose sweep has to register
// on its own: each builds a placement over p holders from rng.
var firstSweepInputs = []struct {
	name string
	make func(rng *rand.Rand, p int) Placement
	// loopsOnly inputs hold no edge between two vertices; noLoops inputs
	// give every local endpoint a non-loop edge at its holder.
	loopsOnly, noLoops bool
}{
	{name: "self-loops only", loopsOnly: true, make: func(rng *rand.Rand, p int) Placement {
		pl := make(Placement, p)
		for k := 3 + rng.Intn(20); k > 0; k-- {
			v, i := uint64(rng.Intn(40)), rng.Intn(p)
			pl[i] = append(pl[i], Edge{U: v, V: v})
		}
		return pl
	}},
	{name: "no edges", loopsOnly: true, make: func(_ *rand.Rand, p int) Placement {
		return make(Placement, p)
	}},
	{name: "one holder", make: func(rng *rand.Rand, p int) Placement {
		pl := make(Placement, p)
		h := rng.Intn(p)
		pl[h] = randomEdges(rng, 30, 60, true)
		return pl
	}},
	{name: "duplicate edges", make: func(rng *rand.Rand, p int) Placement {
		pl := make(Placement, p)
		for _, e := range randomEdges(rng, 30, 40, true) {
			for c := 1 + rng.Intn(3); c > 0; c-- {
				i := rng.Intn(p)
				if rng.Intn(2) == 0 {
					e.U, e.V = e.V, e.U
				}
				pl[i] = append(pl[i], e)
			}
		}
		return pl
	}},
	{name: "no self-loops", noLoops: true, make: func(rng *rand.Rand, p int) Placement {
		pl := make(Placement, p)
		for _, e := range randomEdges(rng, 40, 70, false) {
			i := rng.Intn(p)
			pl[i] = append(pl[i], e)
		}
		return pl
	}},
}

// randomEdges draws m edges over vertices [0, n), with self-loops among
// them when loops is set and none otherwise.
func randomEdges(rng *rand.Rand, n, m int, loops bool) []Edge {
	es := make([]Edge, 0, m)
	for len(es) < m {
		e := Edge{U: uint64(rng.Intn(n)), V: uint64(rng.Intn(n))}
		if loops && rng.Intn(4) == 0 {
			e.V = e.U
		}
		if e.U != e.V || loops {
			es = append(es, e)
		}
	}
	return es
}

// TestFirstSweepRegisters holds the three Borůvka variants to their
// contract on every topotest shape over the inputs phase 1's propose sweep
// has to register by itself. Every run must equal the reference labeling
// and be identical, result and every round, at 1 and 4 workers. An input
// with no edge between two vertices runs the one sweep and no phase:
// Phases 0 and one round per combining step plus the delivery round. Where
// every local endpoint has a non-loop edge at its holder, the proposals
// alone register every vertex: no holder keeps a vertex entry, so none is
// sent up a combining step, and no home receives one.
func TestFirstSweepRegisters(t *testing.T) {
	variants := []struct {
		name string
		run  func(*topology.Tree, Placement, uint64, ...netsim.Option) (*Result, error)
		v    variant
	}{
		{"cc", ccContraction, variant{aware: true}},
		{"cc-flat", CCFlat, variant{}},
		{"spanforest", forestContraction, variant{aware: true, witness: true}},
	}
	for shape := 0; shape < topotest.NumShapes; shape++ {
		rng := rand.New(rand.NewSource(int64(500 + shape)))
		shapeName, tr, err := topotest.Draw(rng, shape)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range firstSweepInputs {
			pl := in.make(rng, tr.NumCompute())
			ref := Reference(pl)
			for _, vr := range variants {
				name := shapeName + "/" + in.name + "/" + vr.name
				one, err := vr.run(tr, pl, 7, netsim.WithWorkers(1))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := Verify(ref, one); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := one.Labels(); !maps.Equal(got, ref.Labels()) {
					t.Fatalf("%s: labels %v, reference %v", name, got, ref.Labels())
				}
				if vr.v.witness {
					if err := VerifyForest(ref, one.Forest); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				four, err := vr.run(tr, pl, 7, netsim.WithWorkers(4))
				if err != nil {
					t.Fatalf("%s, 4 workers: %v", name, err)
				}
				if four.Components != one.Components || four.Checksum != one.Checksum ||
					four.Phases != one.Phases || four.Strategy != one.Strategy ||
					!reflect.DeepEqual(four.PerNode, one.PerNode) || !slices.Equal(four.Forest, one.Forest) {
					t.Fatalf("%s: result at 4 workers differs from 1 worker", name)
				}
				if a, b := serializeReport(four.Report), serializeReport(one.Report); a != b {
					t.Fatalf("%s: rounds at 4 workers differ from 1 worker:\n%s\n%s", name, a, b)
				}

				pr, err := newProto(tr, pl, 7, vr.v, nil)
				if err != nil {
					t.Fatal(err)
				}
				if in.loopsOnly {
					if one.Phases != 0 || one.Report.NumRounds() != len(pr.steps)+1 {
						t.Fatalf("%s: %d phases in %d rounds, want 0 phases in %d rounds",
							name, one.Phases, one.Report.NumRounds(), len(pr.steps)+1)
					}
				}
				if !in.noLoops {
					continue
				}
				pr.collectFirst()
				for i := range pr.nodes {
					if n := len(pr.scr[i].need); n > 0 {
						t.Fatalf("%s: holder %d keeps %d vertex entries", name, i, n)
					}
				}
				pr.phase = 1
				pr.propose()
				enrolled := 0
				for i, v := range pr.nodes {
					enrolled += len(pr.homedVerts[i])
					ib := pr.e.Inbox(v)
					if n := ib.KeyCount(tagVertex) + ib.KeyCount(tagVertexUp); n > 0 {
						t.Fatalf("%s: home %d received %d vertex entries", name, i, n)
					}
				}
				if enrolled != len(ref.Labels()) {
					t.Fatalf("%s: proposals enrolled %d vertices, the input has %d", name, enrolled, len(ref.Labels()))
				}
			}
		}
	}
}
