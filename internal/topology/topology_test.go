package topology

import (
	"math"
	"math/rand"
	"testing"
)

func TestBuilderStar(t *testing.T) {
	tr, err := UniformStar(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.NumNodes(), 5; got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
	if got, want := tr.NumEdges(), 4; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	if got, want := tr.NumCompute(), 4; got != want {
		t.Fatalf("NumCompute = %d, want %d", got, want)
	}
	if tr.IsCompute(tr.Root()) {
		t.Error("star root should be the router")
	}
	if got := tr.ComputeIndex(tr.Root()); got != -1 {
		t.Errorf("ComputeIndex of the router = %d, want -1", got)
	}
	for i, v := range tr.ComputeNodes() {
		if tr.Degree(v) != 1 {
			t.Errorf("compute node %v has degree %d, want 1", v, tr.Degree(v))
		}
		if got := tr.ComputeIndex(v); got != i {
			t.Errorf("ComputeIndex(%v) = %d, want %d", v, got, i)
		}
	}
	for e := EdgeID(0); int(e) < tr.NumEdges(); e++ {
		if tr.Bandwidth(e) != 2 {
			t.Errorf("edge %v bandwidth = %v, want 2", e, tr.Bandwidth(e))
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("cycle", func(t *testing.T) {
		b := NewBuilder()
		v1, v2 := b.Compute(""), b.Compute("")
		w := b.Router("")
		b.Link(v1, w, 1)
		b.Link(v2, w, 1)
		b.Link(v1, v2, 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for cyclic graph")
		}
	})
	t.Run("disconnected", func(t *testing.T) {
		b := NewBuilder()
		b.Compute("")
		b.Compute("")
		b.Compute("")
		w := b.Router("")
		b.Link(NodeID(0), w, 1)
		b.Link(NodeID(1), w, 1)
		// node 2 disconnected: 4 nodes, 2 edges
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for disconnected graph")
		}
	})
	t.Run("selfLoop", func(t *testing.T) {
		b := NewBuilder()
		v := b.Compute("")
		b.Link(v, v, 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for self loop")
		}
	})
	t.Run("badBandwidth", func(t *testing.T) {
		b := NewBuilder()
		v := b.Compute("")
		w := b.Router("")
		b.Link(v, w, 0)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for zero bandwidth")
		}
	})
	t.Run("negBandwidth", func(t *testing.T) {
		b := NewBuilder()
		v := b.Compute("")
		w := b.Router("")
		b.Link(v, w, -3)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for negative bandwidth")
		}
	})
	t.Run("noCompute", func(t *testing.T) {
		b := NewBuilder()
		a := b.Router("")
		c := b.Router("")
		b.Link(a, c, 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for tree without compute nodes")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := NewBuilder().Build(); err == nil {
			t.Fatal("expected error for empty tree")
		}
	})
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name    string
		build   func() (*Tree, error)
		compute int
	}{
		{"Figure1a", func() (*Tree, error) { return Figure1a(), nil }, 6},
		{"Figure1b", func() (*Tree, error) { return Figure1b(), nil }, 9},
		{"TwoTier", func() (*Tree, error) {
			return TwoTier([]int{3, 3, 2}, []float64{10, 5, 1}, 2)
		}, 8},
		{"FatTree", func() (*Tree, error) { return FatTree(2, 3, 1, 3) }, 9},
		{"Caterpillar", func() (*Tree, error) {
			return Caterpillar([]float64{1, 2, 3}, 5)
		}, 4},
		{"Random", func() (*Tree, error) {
			return Random(rand.New(rand.NewSource(7)), 10, 4, 1, 8)
		}, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := tr.NumCompute(); got != tc.compute {
				t.Errorf("NumCompute = %d, want %d", got, tc.compute)
			}
		})
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random(rand.New(rand.NewSource(42)), 8, 3, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(rand.New(rand.NewSource(42)), 8, 3, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different trees")
	}
}

// randomTree builds a random tree for property tests.
func randomTree(rng *rand.Rand) *Tree {
	p := 1 + rng.Intn(8)
	r := 1 + rng.Intn(5)
	tr, err := Random(rng, p, r, 0.5, 16)
	if err != nil {
		panic(err)
	}
	return tr
}

func randomLoads(rng *rand.Rand, tr *Tree) Loads {
	l := make(Loads, tr.NumNodes())
	for _, v := range tr.ComputeNodes() {
		l[v] = int64(rng.Intn(1000))
	}
	return l
}

func TestPathProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		tr := randomTree(rng)
		n := tr.NumNodes()
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		path := tr.Path(nil, u, v)
		if len(path) != tr.PathLen(u, v) {
			t.Fatalf("Path len %d != PathLen %d", len(path), tr.PathLen(u, v))
		}
		// Walk the path from u and confirm it ends at v with no repeats.
		cur := u
		seen := map[EdgeID]bool{}
		for _, e := range path {
			if seen[e] {
				t.Fatalf("edge %v repeated on path", e)
			}
			seen[e] = true
			a, b := tr.Endpoints(e)
			switch cur {
			case a:
				cur = b
			case b:
				cur = a
			default:
				t.Fatalf("path edge %v does not touch current node %v", e, cur)
			}
		}
		if cur != v {
			t.Fatalf("path from %v ended at %v, want %v", u, cur, v)
		}
		// Reverse path must use the same edge set.
		rev := tr.Path(nil, v, u)
		if len(rev) != len(path) {
			t.Fatalf("reverse path length %d != %d", len(rev), len(path))
		}
		for _, e := range rev {
			if !seen[e] {
				t.Fatalf("reverse path uses different edge %v", e)
			}
		}
	}
}

func TestSteinerMatchesUnionOfPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		tr := randomTree(rng)
		sc := NewSteinerScratch(tr)
		n := tr.NumNodes()
		src := NodeID(rng.Intn(n))
		k := 1 + rng.Intn(4)
		dsts := make([]NodeID, k)
		for i := range dsts {
			dsts[i] = NodeID(rng.Intn(n))
		}
		got := tr.Steiner(nil, sc, src, dsts)
		want := map[EdgeID]bool{}
		for _, d := range dsts {
			for _, e := range tr.Path(nil, src, d) {
				want[e] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Steiner edge count %d, want %d", len(got), len(want))
		}
		for _, e := range got {
			if !want[e] {
				t.Fatalf("Steiner includes edge %v not on any path", e)
			}
		}
	}
}

func TestSteinerScratchReuse(t *testing.T) {
	tr := Figure1b()
	sc := NewSteinerScratch(tr)
	vs := tr.ComputeNodes()
	a := tr.Steiner(nil, sc, vs[0], []NodeID{vs[8]})
	b := tr.Steiner(nil, sc, vs[0], []NodeID{vs[8]})
	if len(a) != len(b) {
		t.Fatalf("scratch reuse changed result: %d vs %d edges", len(a), len(b))
	}
}

func TestCutsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		tr := randomTree(rng)
		loads := randomLoads(rng, tr)
		cuts := tr.Cuts(loads)
		sets := tr.CutComputeSets()
		total := loads.Total()
		for e := range cuts {
			var below int64
			for _, v := range sets[e] {
				below += loads[v]
			}
			if cuts[e].Below != below {
				t.Fatalf("edge %d Below = %d, brute force %d", e, cuts[e].Below, below)
			}
			if cuts[e].Above != total-below {
				t.Fatalf("edge %d Above = %d, want %d", e, cuts[e].Above, total-below)
			}
		}
	}
}

func TestOnChildSide(t *testing.T) {
	tr := Figure1b()
	for e := EdgeID(0); int(e) < tr.NumEdges(); e++ {
		c := tr.ChildEnd(e)
		if !tr.OnChildSide(e, c) {
			t.Errorf("ChildEnd(%v)=%v not on child side", e, c)
		}
		if tr.OnChildSide(e, tr.Root()) {
			t.Errorf("root on child side of edge %v", e)
		}
	}
}

// TestOrientLemma4 property-tests Lemma 4: in G† every node has out-degree
// at most one (enforced by a panic in setOut) and exactly one node has
// out-degree zero, for arbitrary trees and loads, including all-zero and
// tied loads.
func TestOrientLemma4(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 300; iter++ {
		tr := randomTree(rng)
		loads := randomLoads(rng, tr)
		if iter%7 == 0 { // exercise heavy ties
			for i := range loads {
				if loads[i] > 0 {
					loads[i] = 100
				}
			}
		}
		if iter%11 == 0 { // all-zero loads: orientation must still be valid
			for i := range loads {
				loads[i] = 0
			}
		}
		d := Orient(tr, loads)
		roots := 0
		for v := NodeID(0); int(v) < tr.NumNodes(); v++ {
			if d.OutEdge(v) == NoEdge {
				roots++
				if d.Root() != v {
					t.Fatalf("root mismatch: %v vs %v", d.Root(), v)
				}
			}
		}
		if roots != 1 {
			t.Fatalf("G† has %d roots, want 1", roots)
		}
		// Orientation must point from lighter to heavier side (ties to the
		// side of the tree root).
		cuts := tr.Cuts(loads)
		for e := EdgeID(0); int(e) < tr.NumEdges(); e++ {
			child := tr.ChildEnd(e)
			if cuts[e].Below <= cuts[e].Above {
				if d.OutEdge(child) != e {
					t.Fatalf("edge %v should leave child %v", e, child)
				}
			} else {
				par, _ := tr.Parent(child)
				if d.OutEdge(par) != e {
					t.Fatalf("edge %v should leave parent %v", e, par)
				}
			}
		}
	}
}

func TestOrientFigure3(t *testing.T) {
	// Left of Figure 3: root of G† is a compute node (one node holds a
	// majority of the data).
	star, err := UniformStar(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	loads := make(Loads, star.NumNodes())
	vs := star.ComputeNodes()
	loads[vs[0]] = 90
	loads[vs[1]] = 5
	loads[vs[2]] = 3
	loads[vs[3]] = 2
	d := Orient(star, loads)
	if !d.RootIsCompute() {
		t.Errorf("expected G† rooted at the heavy compute node, got %v", star.Name(d.Root()))
	}
	if d.Root() != vs[0] {
		t.Errorf("root = %v, want %v", d.Root(), vs[0])
	}

	// Right of Figure 3: balanced loads root G† at a router.
	for _, v := range vs {
		loads[v] = 25
	}
	d = Orient(star, loads)
	if d.RootIsCompute() {
		t.Error("expected G† rooted at the router for balanced loads")
	}
	for _, v := range vs {
		if d.Parent(v) != d.Root() {
			t.Errorf("compute node %v should point at the router", v)
		}
	}
}

func TestPostOrder(t *testing.T) {
	tr := Figure1b()
	loads := make(Loads, tr.NumNodes())
	for _, v := range tr.ComputeNodes() {
		loads[v] = 10
	}
	d := Orient(tr, loads)
	order := d.PostOrder()
	if len(order) != tr.NumNodes() {
		t.Fatalf("post order visits %d nodes, want %d", len(order), tr.NumNodes())
	}
	pos := map[NodeID]int{}
	for i, v := range order {
		pos[v] = i
	}
	for v := NodeID(0); int(v) < tr.NumNodes(); v++ {
		if p := d.Parent(v); p != NoNode && pos[v] > pos[p] {
			t.Errorf("node %v visited after its parent %v", v, p)
		}
	}
}

func TestMinCoverSumSqAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for iter := 0; iter < 300 && checked < 150; iter++ {
		tr := randomTree(rng)
		if tr.NumNodes() > 10 {
			continue
		}
		loads := randomLoads(rng, tr)
		d := Orient(tr, loads)
		cover, wTilde, ok := d.MinCoverSumSq()
		covers := d.EnumMinimalCovers()
		if !ok {
			if !d.RootIsCompute() {
				t.Fatalf("MinCoverSumSq not ok but root %v is a router", d.Root())
			}
			continue
		}
		checked++
		if !d.IsCover(cover) {
			t.Fatalf("returned set is not a cover: %v", cover)
		}
		best := math.Inf(1)
		for _, c := range covers {
			if len(c) == 0 {
				continue
			}
			if !d.IsCover(c) {
				continue
			}
			var s float64
			for _, v := range c {
				w := d.OutBandwidth(v)
				s += w * w
			}
			if s < best {
				best = s
			}
		}
		if math.IsInf(best, 1) {
			t.Fatalf("enumeration found no cover but DP did")
		}
		if diff := math.Abs(wTilde*wTilde - best); diff > 1e-6*best {
			t.Fatalf("DP min Σw² = %v, enumeration min = %v", wTilde*wTilde, best)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d instances checked; generator too restrictive", checked)
	}
}

func TestIsMinimalCover(t *testing.T) {
	tr := Figure1b()
	loads := make(Loads, tr.NumNodes())
	for _, v := range tr.ComputeNodes() {
		loads[v] = 10
	}
	d := Orient(tr, loads)
	all := append([]NodeID(nil), tr.ComputeNodes()...)
	if !d.IsMinimalCover(all) {
		t.Error("the set of all compute leaves should be a minimal cover")
	}
	if d.IsMinimalCover(append(all, d.Root())) {
		t.Error("adding the root should break minimality")
	}
	if d.IsMinimalCover(all[:3]) {
		t.Error("a strict subset of the leaves is not a cover")
	}
}

func TestLeftToRight(t *testing.T) {
	tr := Figure1b()
	order := tr.LeftToRight()
	if len(order) != tr.NumCompute() {
		t.Fatalf("ordering has %d nodes, want %d", len(order), tr.NumCompute())
	}
	want := []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9"}
	for i, v := range order {
		if tr.Name(v) != want[i] {
			t.Errorf("order[%d] = %s, want %s", i, tr.Name(v), want[i])
		}
	}
}

// TestLeftToRightContiguity checks the defining property of a valid
// ordering: for every edge, the compute nodes on one side form a contiguous
// interval of the ordering (possibly wrapping), which is what the sorting
// lower bound of Theorem 6 relies on. For orderings rooted at the internal
// root the child side is always a plain (non-wrapping) interval.
func TestLeftToRightContiguity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 100; iter++ {
		tr := randomTree(rng)
		order := tr.LeftToRight()
		pos := tr.OrderIndex(order)
		for e := EdgeID(0); int(e) < tr.NumEdges(); e++ {
			lo, hi, count := len(order), -1, 0
			for _, v := range tr.ComputeNodes() {
				if tr.OnChildSide(e, v) {
					p := pos[v]
					if p < lo {
						lo = p
					}
					if p > hi {
						hi = p
					}
					count++
				}
			}
			if count == 0 {
				continue
			}
			if hi-lo+1 != count {
				t.Fatalf("edge %v: child-side compute nodes not contiguous (lo=%d hi=%d count=%d)", e, lo, hi, count)
			}
		}
	}
}

func TestLeftToRightFrom(t *testing.T) {
	tr := Figure1b()
	vs := tr.ComputeNodes()
	order := tr.LeftToRightFrom(vs[4]) // root at v5
	if len(order) != tr.NumCompute() {
		t.Fatalf("ordering has %d nodes, want %d", len(order), tr.NumCompute())
	}
	if order[0] != vs[4] {
		t.Errorf("ordering rooted at v5 should start at v5, got %s", tr.Name(order[0]))
	}
}

func TestEnsureComputeLeaves(t *testing.T) {
	b := NewBuilder()
	v1 := b.Compute("v1") // internal compute node
	v2 := b.Compute("v2")
	v3 := b.Compute("v3")
	b.Link(v2, v1, 4)
	b.Link(v3, v1, 2)
	tr := b.MustBuild()

	nt, m := EnsureComputeLeaves(tr)
	if nt == tr {
		t.Fatal("tree with internal compute node returned unchanged")
	}
	for _, v := range nt.ComputeNodes() {
		if nt.Degree(v) != 1 {
			t.Errorf("compute node %s still internal", nt.Name(v))
		}
	}
	img := m.OldToNew[v1]
	if !nt.IsCompute(img) {
		t.Fatalf("image of v1 is not a compute node")
	}
	p, e := nt.Parent(img)
	if nt.Name(p) != "v1" {
		t.Errorf("v1' should hang off old v1, hangs off %s", nt.Name(p))
	}
	if !math.IsInf(nt.Bandwidth(e), 1) {
		t.Errorf("stub edge bandwidth = %v, want +Inf", nt.Bandwidth(e))
	}
	// Leaf-only trees pass through unchanged.
	star := Figure1a()
	same, _ := EnsureComputeLeaves(star)
	if same != star {
		t.Error("leaf-only tree should be returned unchanged")
	}
}

func TestContractDegree2(t *testing.T) {
	// v1 - a - b - v2 with bandwidths 5, 3, 7: contracts to v1 - x - v2 or a
	// single path with min bandwidths preserved.
	b := NewBuilder()
	v1 := b.Compute("v1")
	a := b.Router("a")
	c := b.Router("b")
	v2 := b.Compute("v2")
	b.Link(v1, a, 5)
	b.Link(a, c, 3)
	b.Link(c, v2, 7)
	tr := b.MustBuild()

	nt, _ := ContractDegree2(tr)
	if nt.NumNodes() != 2 {
		t.Fatalf("contracted tree has %d nodes, want 2", nt.NumNodes())
	}
	if nt.NumEdges() != 1 {
		t.Fatalf("contracted tree has %d edges, want 1", nt.NumEdges())
	}
	if got := nt.Bandwidth(0); got != 3 {
		t.Errorf("contracted bandwidth = %v, want min(5,3,7)=3", got)
	}
}

func TestContractDegree2KeepsComputeAndBranches(t *testing.T) {
	tr := Figure1b()
	nt, _ := ContractDegree2(tr)
	// Figure 1b has no degree-2 routers, so nothing changes structurally.
	if nt.NumNodes() != tr.NumNodes() {
		t.Errorf("contraction changed node count %d -> %d", tr.NumNodes(), nt.NumNodes())
	}
}

func TestSpecRoundTrip(t *testing.T) {
	trees := []*Tree{Figure1a(), Figure1b()}
	b := NewBuilder()
	v := b.Compute("v")
	w := b.Router("w")
	b.Link(v, w, math.Inf(1))
	trees = append(trees, b.MustBuild())

	for _, tr := range trees {
		data, err := tr.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.NumNodes() != tr.NumNodes() || back.NumEdges() != tr.NumEdges() {
			t.Fatalf("round trip changed shape")
		}
		for e := EdgeID(0); int(e) < tr.NumEdges(); e++ {
			if back.Bandwidth(e) != tr.Bandwidth(e) {
				t.Fatalf("edge %v bandwidth %v -> %v", e, tr.Bandwidth(e), back.Bandwidth(e))
			}
		}
		if back.String() != tr.String() {
			t.Fatalf("round trip changed rendering")
		}
	}
}

func TestParseJSONErrors(t *testing.T) {
	if _, err := ParseJSON([]byte("{")); err == nil {
		t.Error("expected error for malformed JSON")
	}
	if _, err := ParseJSON([]byte(`{"nodes":[{"name":"v","compute":true}],"edges":[{"a":0,"b":5,"bw":1}]}`)); err == nil {
		t.Error("expected error for out-of-range node index")
	}
}

func TestRender(t *testing.T) {
	s := Figure1a().String()
	if s == "" {
		t.Fatal("empty rendering")
	}
	d := Orient(Figure1a(), make(Loads, Figure1a().NumNodes()))
	if d.StringDirected() == "" {
		t.Fatal("empty G† rendering")
	}
}

func TestComputeLoads(t *testing.T) {
	tr := Figure1a()
	l, err := tr.ComputeLoads([]int64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if l.Total() != 21 {
		t.Errorf("total = %d, want 21", l.Total())
	}
	if _, err := tr.ComputeLoads([]int64{1}); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := tr.ComputeLoads([]int64{1, 2, 3, 4, 5, -1}); err == nil {
		t.Error("expected negative load error")
	}
}
