package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// fuzzMaxEdges caps the decoded multigraph; 64 vertices saturate long before.
const fuzzMaxEdges = 256

// fuzzGraph decodes a byte string into one connectivity run: a topotest
// shape with its parameter seed, then (u, v, holder) triples. Vertices are
// bytes taken modulo 64 and holders modulo the compute-node count, so decoding
// never fails and the fuzzer explores graphs, not decoder errors. u = v is a
// self-loop, which is how an isolated vertex is declared; repeated triples
// are parallel edges, on one holder or on several. The top bit of the seed
// byte hashes the vertex ids to 64 bits, which sends the renumbering pass
// down its radix side and idxOf down its binary search. The top bit of the
// shape byte widens the vertices to all 256 byte values: with more than 64
// vertices a bitmap over them has more than one word, so a home whose index
// list is shorter than that takes sortIndices' radix side.
func fuzzGraph(data []byte) (*topology.Tree, Placement, uint64, error) {
	var shape, seed byte
	if len(data) > 0 {
		shape = data[0]
	}
	if len(data) > 1 {
		seed = data[1]
	}
	_, tr, err := topotest.Draw(rand.New(rand.NewSource(int64(seed&0x7f))), int(shape&0x7f))
	if err != nil {
		return nil, nil, 0, err
	}
	wide := shape&0x80 != 0
	id := func(b byte) uint64 {
		v := uint64(b)
		if !wide {
			v %= 64
		}
		if seed&0x80 != 0 {
			v = hashing.Mix64(v + 1)
		}
		return v
	}
	pl := make(Placement, tr.NumCompute())
	for k := 2; k+3 <= len(data) && (k-2)/3 < fuzzMaxEdges; k += 3 {
		i := int(data[k+2]) % len(pl)
		pl[i] = append(pl[i], Edge{U: id(data[k]), V: id(data[k+1])})
	}
	return tr, pl, uint64(seed), nil
}

// fuzzCCSeeds are FuzzCC's hand-written seeds, which FuzzReference shares.
func fuzzCCSeeds() [][]byte {
	// Wide ids: 240 vertices in paths of six, so the holders' lists are
	// longer than a bitmap over them has words and the short ones of later
	// phases are not.
	wide := []byte{0x82, 4}
	for k := 0; k < 240; k++ {
		if k%6 != 5 {
			wide = append(wide, byte(k), byte(k+1), byte(k*7))
		}
	}
	return [][]byte{
		{},
		{8, 0, 1, 1, 0, 2, 2, 0}, // one node, two isolated vertices
		{0, 3, 1, 2, 0, 2, 1, 1, 1, 2, 2, 5, 5, 0, 2, 3, 1, 3, 4, 2, 9, 9}, // parallel edges, a path, a dangling byte pair
		{2, 0x85, 0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 0, 3, 7, 7, 4, 8, 9, 5},    // hashed ids: a 4-cycle, a loop, a pair
		{10, 9, 5, 4, 0, 4, 3, 1, 3, 2, 2, 2, 1, 3, 1, 0, 4, 9, 8, 5, 8, 7, 6, 7, 6, 7, 20, 21, 8, 21, 22, 9, 22, 20, 10},
		{0x82, 4, 0, 255, 0}, // wide ids, one edge: too few endpoints for the renumbering bitmap
		wide,
	}
}

// FuzzCC holds the four connectivity variants, and the contractions of cc
// and spanforest run alone, to their contract on byte-derived trees and
// multigraphs (self-loops, parallel edges, isolated vertices, empty
// holders): every variant passes Verify against the union-find reference,
// every result and every round (cost included) is the same at 1, 4 and 8
// workers, spanforest's witnesses pass VerifyForest at each, and the three
// Borůvka contractions send what the map oracle (runMaps, contracting for
// cc and cc-flat, min-neighbor for spanforest) sends, round for round:
// messages, elements, cost and the per-edge, per-node tallies. The
// oracle decodes every answer by position against the queries it kept, and
// checkAnswers decodes the Borůvka variants' own jump replies and direct
// lookup answers the same way.
func FuzzCC(f *testing.F) {
	for _, seed := range fuzzCCSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, pl, seed, err := fuzzGraph(data)
		if err != nil {
			t.Fatalf("topotest.Draw: %v", err)
		}
		ref := Reference(pl)
		for _, v := range []struct {
			name           string
			run            func(*topology.Tree, Placement, uint64, ...netsim.Option) (*Result, error)
			aware, witness bool
			boruvka        bool
		}{
			{"cc", CC, true, false, false},
			{"cc contraction", ccContraction, true, false, true},
			{"cc-flat", CCFlat, false, false, true},
			{"spanforest", SpanningForest, true, true, false},
			{"spanforest contraction", forestContraction, true, true, true},
			{"cc-fast", CCFast, true, false, false},
		} {
			one, err := v.run(tr, pl, seed, netsim.WithWorkers(1))
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			if err := Verify(ref, one); err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			if v.witness {
				// Verify skips a nil forest, which a run without hookings returns.
				if err := VerifyForest(ref, one.Forest); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
			}
			for _, workers := range []int{4, 8} {
				many, err := v.run(tr, pl, seed, netsim.WithWorkers(workers))
				if err != nil {
					t.Fatalf("%s, %d workers: %v", v.name, workers, err)
				}
				if many.Components != one.Components || many.Checksum != one.Checksum ||
					many.Phases != one.Phases || many.Strategy != one.Strategy ||
					!reflect.DeepEqual(many.PerNode, one.PerNode) || !slices.Equal(many.Forest, one.Forest) {
					t.Fatalf("%s: result at %d workers differs from 1 worker:\n got %+v\nwant %+v", v.name, workers, many, one)
				}
				if !reflect.DeepEqual(many.Report.Rounds, one.Report.Rounds) {
					t.Fatalf("%s: rounds at %d workers differ from 1 worker", v.name, workers)
				}
				if v.witness {
					if err := VerifyForest(ref, many.Forest); err != nil {
						t.Fatalf("%s, %d workers: %v", v.name, workers, err)
					}
				}
			}
			if !v.boruvka {
				continue
			}
			want, err := runMaps(tr, pl, seed, v.aware, v.witness, !v.witness, nil)
			if err != nil {
				t.Fatalf("%s oracle: %v", v.name, err)
			}
			if one.Phases != want.Phases || one.Strategy != want.Strategy ||
				!reflect.DeepEqual(one.PerNode, want.PerNode) || !slices.Equal(one.Forest, want.Forest) {
				t.Fatalf("%s: result differs from the map oracle:\n got %+v\nwant %+v", v.name, one, want)
			}
			if !reflect.DeepEqual(one.Report.Rounds, want.Report.Rounds) {
				t.Fatalf("%s: rounds differ from the map oracle:\n got %s\nwant %s",
					v.name, serializeReport(one.Report), serializeReport(want.Report))
			}
			checkAnswers(t, tr, pl, seed, variant{aware: v.aware, witness: v.witness})
		}
	})
}
