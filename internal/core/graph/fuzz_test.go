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

// FuzzCC holds the four connectivity variants to their contract on
// byte-derived trees and multigraphs (self-loops, parallel edges, isolated
// vertices, empty holders): every variant passes Verify against the
// union-find reference and spanforest's witnesses pass VerifyForest, every
// result and every round is the same at 1 and 4 workers, and the three
// Borůvka variants send what the map oracle (runMaps) sends, round for
// round: messages, elements, cost and the per-edge, per-node tallies.
func FuzzCC(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 1, 1, 0, 2, 2, 0})                                           // one node, two isolated vertices
	f.Add([]byte{0, 3, 1, 2, 0, 2, 1, 1, 1, 2, 2, 5, 5, 0, 2, 3, 1, 3, 4, 2, 9, 9}) // parallel edges, a path, a dangling byte pair
	f.Add([]byte{2, 0x85, 0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 0, 3, 7, 7, 4, 8, 9, 5})    // hashed ids: a 4-cycle, a loop, a pair
	f.Add([]byte{10, 9, 5, 4, 0, 4, 3, 1, 3, 2, 2, 2, 1, 3, 1, 0, 4, 9, 8, 5, 8, 7, 6, 7, 6, 7, 20, 21, 8, 21, 22, 9, 22, 20, 10})
	f.Add([]byte{0x82, 4, 0, 255, 0}) // wide ids, one edge: too few endpoints for the renumbering bitmap
	// Wide ids: 240 vertices in paths of six, so the holders' lists are
	// longer than a bitmap over them has words and the short ones of later
	// phases are not.
	wide := []byte{0x82, 4}
	for k := 0; k < 240; k++ {
		if k%6 != 5 {
			wide = append(wide, byte(k), byte(k+1), byte(k*7))
		}
	}
	f.Add(wide)
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
			{"cc", CC, true, false, true},
			{"cc-flat", CCFlat, false, false, true},
			{"spanforest", SpanningForest, true, true, true},
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
			four, err := v.run(tr, pl, seed, netsim.WithWorkers(4))
			if err != nil {
				t.Fatalf("%s, 4 workers: %v", v.name, err)
			}
			if four.Components != one.Components || four.Checksum != one.Checksum ||
				four.Phases != one.Phases || four.Strategy != one.Strategy ||
				!reflect.DeepEqual(four.PerNode, one.PerNode) || !slices.Equal(four.Forest, one.Forest) {
				t.Fatalf("%s: result at 4 workers differs from 1 worker:\n got %+v\nwant %+v", v.name, four, one)
			}
			if !reflect.DeepEqual(four.Report.Rounds, one.Report.Rounds) {
				t.Fatalf("%s: rounds at 4 workers differ from 1 worker", v.name)
			}
			if !v.boruvka {
				continue
			}
			want, err := runMaps(tr, pl, seed, v.aware, v.witness, nil)
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
		}
	})
}
