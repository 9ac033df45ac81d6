package graph

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/hashing"
	"topompc/internal/lowerbound"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// The sorted oracle is the reference as it was before Ref hashed its ids:
// every endpoint sorted and compacted into an index, every union resolved by
// binary search, the labels and the spread bound's holder sets kept in maps.
// It shares no code with Ref, so the tests below hold the two to each other.

// unionFind is a slice-based path-halving union-by-size forest over a
// renumbered vertex set: arbitrary uint64 ids are mapped onto dense
// indices once (sorted, so index order equals id order) and the forest
// itself is two flat arrays.
type unionFind struct {
	ids    []uint64 // sorted distinct vertex ids; position = index
	parent []int32
	size   []int32
}

// newUnionFind builds the forest over the distinct ids appearing in verts
// (duplicates welcome; the slice is consumed as scratch).
func newUnionFind(verts []uint64) *unionFind {
	slices.Sort(verts)
	ids := slices.Compact(verts)
	u := &unionFind{
		ids:    ids,
		parent: make([]int32, len(ids)),
		size:   make([]int32, len(ids)),
	}
	for k := range u.parent {
		u.parent[k] = int32(k)
		u.size[k] = 1
	}
	return u
}

// index resolves an id known to be in the vertex set.
func (u *unionFind) index(v uint64) int32 {
	k, _ := slices.BinarySearch(u.ids, v)
	return int32(k)
}

func (u *unionFind) find(v int32) int32 {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]]
		v = u.parent[v]
	}
	return v
}

// union merges the components of a and b; it reports false when they were
// already connected.
func (u *unionFind) union(a, b int32) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}

// sortedRef is the sorted oracle's answer.
type sortedRef struct {
	Count    int64
	Labels   map[uint64]uint64
	Checksum uint64
}

// sortedReference computes components, canonical min-labels, and the
// labeling checksum centrally with union-find.
func sortedReference(edges Placement) *sortedRef {
	total := 0
	for _, frag := range edges {
		total += len(frag)
	}
	verts := make([]uint64, 0, 2*total)
	for _, frag := range edges {
		for _, e := range frag {
			verts = append(verts, e.U, e.V)
		}
	}
	u := newUnionFind(verts)
	for _, frag := range edges {
		for _, e := range frag {
			if e.U != e.V {
				u.union(u.index(e.U), u.index(e.V))
			}
		}
	}
	// Canonicalize: the minimum vertex of each component is the first of
	// its indices in ascending order, since index order equals id order.
	n := len(u.ids)
	minOf := make([]int32, n)
	for k := range minOf {
		minOf[k] = -1
	}
	count := int64(0)
	labels := make(map[uint64]uint64, n)
	for k := 0; k < n; k++ {
		r := u.find(int32(k))
		if minOf[r] < 0 {
			minOf[r] = int32(k)
			count++
		}
		labels[u.ids[k]] = u.ids[minOf[r]]
	}
	ref := &sortedRef{Count: count, Labels: labels}
	ref.Checksum = Checksum(ref.Labels)
	return ref
}

// componentSpreadMaps is the nested-map spread: for every connected
// component, the compute nodes holding at least one of its input edges.
func componentSpreadMaps(t *topology.Tree, edges Placement) [][]topology.NodeID {
	ref := sortedReference(edges)
	nodes := t.ComputeNodes()
	present := make(map[uint64]map[topology.NodeID]bool)
	for i, frag := range edges {
		v := nodes[i]
		for _, e := range frag {
			for _, root := range [2]uint64{ref.Labels[e.U], ref.Labels[e.V]} {
				set := present[root]
				if set == nil {
					set = make(map[topology.NodeID]bool)
					present[root] = set
				}
				set[v] = true
			}
		}
	}
	out := make([][]topology.NodeID, 0, len(present))
	for _, root := range slices.Sorted(maps.Keys(present)) {
		set := present[root]
		list := make([]topology.NodeID, 0, len(set))
		for v := range set {
			list = append(list, v)
		}
		slices.Sort(list)
		out = append(out, list)
	}
	return out
}

// vertexSpreadMaps is the nested-map vertex spread: for every vertex id,
// the compute nodes holding at least one of its incident input edges,
// ascending.
func vertexSpreadMaps(t *topology.Tree, edges Placement) map[uint64][]topology.NodeID {
	nodes := t.ComputeNodes()
	present := make(map[uint64]map[topology.NodeID]bool)
	for i, frag := range edges {
		for _, e := range frag {
			for _, x := range [2]uint64{e.U, e.V} {
				if present[x] == nil {
					present[x] = make(map[topology.NodeID]bool)
				}
				present[x][nodes[i]] = true
			}
		}
	}
	out := make(map[uint64][]topology.NodeID, len(present))
	for x, set := range present {
		out[x] = slices.Sorted(maps.Keys(set))
	}
	return out
}

// byVertex keys ReferenceSpread's holder lists, which come in the
// reference's first-seen order, by vertex id.
func byVertex(ref *Ref, spread [][]topology.NodeID) map[uint64][]topology.NodeID {
	out := make(map[uint64][]topology.NodeID, len(spread))
	for k, nodes := range spread {
		out[ref.ids[k]] = nodes
	}
	return out
}

// oracleForest is a spanning forest of the input: the edges whose union
// merged two components of the sorted oracle's union-find, in input order.
func oracleForest(edges Placement) []Edge {
	var verts []uint64
	for _, frag := range edges {
		for _, e := range frag {
			verts = append(verts, e.U, e.V)
		}
	}
	u := newUnionFind(verts)
	var forest []Edge
	for _, frag := range edges {
		for _, e := range frag {
			if e.U != e.V && u.union(u.index(e.U), u.index(e.V)) {
				forest = append(forest, e)
			}
		}
	}
	return forest
}

// checkAgainstOracle holds Reference to the sorted oracle on one input:
// the same count, checksum and labels; the checksum is Checksum of the
// labels; the spread and the vertex spread over tr equal the nested-map
// ones, and ReferenceSpread's reference is Reference's; a
// spanning forest of input edges passes VerifyForest and, with one end
// swapped for an id outside the input, names the unknown vertex.
func checkAgainstOracle(t *testing.T, name string, tr *topology.Tree, pl Placement) {
	t.Helper()
	ref, want := Reference(pl), sortedReference(pl)
	labels := ref.Labels()
	if ref.Count != want.Count || ref.Checksum != want.Checksum || !maps.Equal(labels, want.Labels) {
		t.Fatalf("%s: reference has %d components (checksum %x, %d labels), the sorted oracle %d (%x, %d labels)",
			name, ref.Count, ref.Checksum, len(labels), want.Count, want.Checksum, len(want.Labels))
	}
	if got := Checksum(labels); got != ref.Checksum {
		t.Fatalf("%s: checksum %x, Checksum of the labels %x", name, ref.Checksum, got)
	}
	if got, want := ref.Spread(tr), componentSpreadMaps(tr, pl); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: spread %v, nested maps %v", name, got, want)
	}
	sref, vs := ReferenceSpread(tr, pl)
	if sref.Count != ref.Count || sref.Checksum != ref.Checksum || !slices.Equal(sref.ids, ref.ids) {
		t.Fatalf("%s: ReferenceSpread's reference differs from Reference's", name)
	}
	if got, want := byVertex(ref, vs), vertexSpreadMaps(tr, pl); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: vertex spread %v, nested maps %v", name, got, want)
	}
	forest := oracleForest(pl)
	if err := VerifyForest(ref, forest); err != nil {
		t.Fatalf("%s: oracle forest: %v", name, err)
	}
	absent := uint64(math.MaxUint64)
	for _, ok := want.Labels[absent]; ok; _, ok = want.Labels[absent] {
		absent = hashing.Mix64(absent)
	}
	for k := range forest {
		bad := slices.Clone(forest)
		bad[k].V = absent
		if err := VerifyForest(ref, bad); err == nil || !strings.Contains(err.Error(), "unknown vertex") {
			t.Fatalf("%s: forest edge %d ending at absent %d: %v, want the unknown vertex named", name, k, absent, err)
		}
	}
	if err := VerifyForest(ref, []Edge{{U: absent, V: absent}}); err == nil || !strings.Contains(err.Error(), "unknown vertex") {
		t.Fatalf("%s: self-loop at absent %d: %v, want the unknown vertex named", name, absent, err)
	}
}

// TestReferenceMatchesSortedOracle holds the hashed reference to the sorted
// oracle on the generator families (dense ids), on ids spread over 64 bits
// with 0 and the largest id among them, on vertices only a self-loop
// declares, on parallel edges, and on empty placements and fragments.
func TestReferenceMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := inputs(families(t, rng), 5)
	spread := make(Placement, 3)
	for i, frag := range cases["gnp"] {
		for _, e := range frag {
			spread[i%3] = append(spread[i%3], Edge{U: hashing.Mix64(e.U ^ 0xabcdef), V: hashing.Mix64(e.V ^ 0xabcdef)})
		}
	}
	spread[0] = append(spread[0], Edge{U: 0, V: math.MaxUint64}, Edge{U: math.MaxUint64, V: hashing.Mix64(7)})
	spread[2] = append(spread[2], Edge{U: 0, V: 0}, Edge{U: math.MaxUint64 - 1, V: 1})
	cases["spread-ids"] = spread
	cases["self-loops"] = Placement{
		{{U: 9, V: 9}, {U: 3, V: 4}, {U: 1 << 40, V: 1 << 40}},
		{{U: 0, V: 0}, {U: 4, V: 4}, {U: 9, V: 9}},
	}
	cases["parallel"] = Placement{
		{{U: 1, V: 2}, {U: 2, V: 1}, {U: 1, V: 2}},
		{{U: 2, V: 1}, {U: 5, V: 6}, {U: 6, V: 5}},
		{{U: 5, V: 6}, {U: 1, V: 2}},
	}
	cases["empty"] = Placement{}
	cases["nil"] = nil
	cases["empty-fragments"] = Placement{nil, {}, {{U: 3, V: 8}}, {}}
	cases["all-empty-fragments"] = Placement{nil, {}, nil}
	// Five compute nodes, one per placement slot the cases use at most.
	tr, err := topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		checkAgainstOracle(t, name, tr, cases[name])
	}
	if ref := Reference(nil); ref.Count != 0 || ref.Checksum != 0 || len(ref.Labels()) != 0 {
		t.Fatalf("empty input: %d components, checksum %x, %d labels", ref.Count, ref.Checksum, len(ref.Labels()))
	}
}

// TestSpreadMatchesNestedMaps pins the spread bound: on every topotest shape,
// with the edges placed uniformly and Zipf(1.2), Spread returns the
// nested-map holder lists, in the same order, and ReferenceSpread each
// vertex's, and lowerbound.Spanning the same Bound on either.
func TestSpreadMatchesNestedMaps(t *testing.T) {
	for i := 0; i < 2*topotest.NumShapes; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		name, tr, err := topotest.Draw(rng, i)
		if err != nil {
			t.Fatal(err)
		}
		// Sparse enough to leave many components, some of one edge, and
		// shuffled, so that first-seen order is not label order.
		keys, err := dataset.GNP(rng, 40+rng.Intn(200), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		dataset.Shuffle(rng, keys)
		p := tr.NumCompute()
		for _, place := range []string{"uniform", "zipf"} {
			var frags dataset.Placement
			if place == "zipf" {
				frags, err = dataset.SplitZipf(rng, keys, p, 1.2)
			} else {
				frags, err = dataset.SplitUniform(keys, p)
			}
			if err != nil {
				t.Fatal(err)
			}
			pl := make(Placement, p)
			for h, frag := range frags {
				for _, k := range frag {
					u, v := dataset.UnpackEdge(k)
					pl[h] = append(pl[h], Edge{U: uint64(u), V: uint64(v)})
				}
			}
			label := fmt.Sprintf("%s #%d %s", name, i, place)
			got, want := Reference(pl).Spread(tr), componentSpreadMaps(tr, pl)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: spread %v, nested maps %v", label, got, want)
			}
			if got, want := ComponentSpread(tr, pl), want; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ComponentSpread %v, nested maps %v", label, got, want)
			}
			if a, b := lowerbound.Spanning(tr, got), lowerbound.Spanning(tr, want); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: bound %+v, nested-map bound %+v", label, a, b)
			}
			ref, vs := ReferenceSpread(tr, pl)
			wantVS := vertexSpreadMaps(tr, pl)
			if got := byVertex(ref, vs); !reflect.DeepEqual(got, wantVS) {
				t.Fatalf("%s: vertex spread %v, nested maps %v", label, got, wantVS)
			}
			var lists [][]topology.NodeID
			for _, x := range slices.Sorted(maps.Keys(wantVS)) {
				lists = append(lists, wantVS[x])
			}
			if a, b := lowerbound.Spanning(tr, vs), lowerbound.Spanning(tr, lists); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: vertex bound %+v, nested-map bound %+v", label, a, b)
			}
		}
	}
}

// fuzzCorpus reads the checked-in corpus of the named fuzz target: each
// file is "go test fuzz v1" followed by one []byte("...") line.
func fuzzCorpus(f *testing.F, target string) [][]byte {
	f.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			f.Fatalf("%s: not a one-value corpus file", name)
		}
		lit, ok := strings.CutPrefix(lines[1], "[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		s, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			f.Fatalf("%s: value %q is no []byte literal", name, lines[1])
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzReference holds Reference, Spread, ReferenceSpread and VerifyForest to
// the sorted oracle (checkAgainstOracle) on FuzzCC's byte-derived trees
// and multigraphs, seeded from FuzzCC's seeds and checked-in corpus.
func FuzzReference(f *testing.F) {
	for _, seed := range fuzzCCSeeds() {
		f.Add(seed)
	}
	for _, seed := range fuzzCorpus(f, "FuzzCC") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, pl, _, err := fuzzGraph(data)
		if err != nil {
			t.Fatalf("topotest.Draw: %v", err)
		}
		checkAgainstOracle(t, "fuzz input", tr, pl)
	})
}
