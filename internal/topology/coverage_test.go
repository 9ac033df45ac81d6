package topology

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestTreeAccessors exercises the thin accessors the protocol packages
// use from outside: Neighbors, Preorder, and the renderers.
func TestTreeAccessors(t *testing.T) {
	tree := Figure1b()
	if got := len(tree.Neighbors(tree.Root())); got != tree.Degree(tree.Root()) {
		t.Errorf("Neighbors/Degree disagree: %d vs %d", got, tree.Degree(tree.Root()))
	}
	pre := tree.Preorder()
	if len(pre) != tree.NumNodes() || pre[0] != tree.Root() {
		t.Errorf("Preorder has %d nodes starting at %d; want %d starting at root %d",
			len(pre), pre[0], tree.NumNodes(), tree.Root())
	}
	if s := tree.String(); !strings.Contains(s, "w1") || !strings.Contains(s, "v9") {
		t.Errorf("String() misses nodes:\n%s", s)
	}
}

// TestMemo exercises the per-tree cache: compute-once, hit on repeat,
// and a deterministic winner under concurrency.
func TestMemo(t *testing.T) {
	type key struct{}
	tree := Figure1a()
	calls := 0
	v1 := tree.Memo(key{}, func() any { calls++; return 42 })
	v2 := tree.Memo(key{}, func() any { calls++; return 43 })
	if v1 != 42 || v2 != 42 || calls != 1 {
		t.Errorf("Memo: got %v then %v with %d compute calls", v1, v2, calls)
	}

	type concKey struct{}
	var wg sync.WaitGroup
	results := make([]any, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = tree.Memo(concKey{}, func() any { return new(int) })
		}(i)
	}
	wg.Wait()
	for _, r := range results[1:] {
		if r != results[0] {
			t.Fatal("concurrent Memo callers saw different values")
		}
	}
}

// TestTreeValidateErrors drives every Validate rejection on hand-built
// trees that bypass the Builder's own checks.
func TestTreeValidateErrors(t *testing.T) {
	valid := Figure1a()
	cases := []struct {
		name string
		tree *Tree
		want string
	}{
		{"empty", &Tree{}, "empty tree"},
		{"edge-count", &Tree{network: network{
			names:       []string{"a", "b"},
			compute:     []bool{true, true},
			computeList: []NodeID{0, 1},
		}}, "a tree needs exactly 1"},
		{"no-compute", &Tree{network: network{
			names:   []string{"a", "b"},
			compute: []bool{false, false},
			endA:    []NodeID{0}, endB: []NodeID{1}, bw: []float64{1},
		}}, "no compute nodes"},
		{"bad-bandwidth", &Tree{network: network{
			names:       []string{"a", "b"},
			compute:     []bool{true, true},
			computeList: []NodeID{0, 1},
			endA:        []NodeID{0}, endB: []NodeID{1}, bw: []float64{-2},
		}}, "invalid bandwidth"},
		{"disconnected", &Tree{
			network: network{
				names:       []string{"a", "b"},
				compute:     []bool{true, true},
				computeList: []NodeID{0, 1},
				endA:        []NodeID{0}, endB: []NodeID{1}, bw: []float64{1},
			},
			preorder: []NodeID{0}, // preorder shorter than n
		}, "not connected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tree.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want mention of %q", err, tc.want)
			}
		})
	}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
}

// TestBuilderErrorPaths drives the tree Builder's Link/Build/MustBuild
// rejections.
func TestBuilderErrorPaths(t *testing.T) {
	b := NewBuilder()
	b.Compute("a")
	if id := b.Link(0, 7, 1); id != NoEdge {
		t.Error("Link to unknown node returned a real edge id")
	}
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Errorf("got %v, want unknown-node error", err)
	}

	b2 := NewBuilder()
	x := b2.Compute("x")
	if id := b2.Link(x, x, 1); id != NoEdge {
		t.Error("self-loop returned a real edge id")
	}

	b3 := NewBuilder()
	u := b3.Compute("u")
	v := b3.Compute("v")
	if id := b3.Link(u, v, -3); id != NoEdge {
		t.Error("negative bandwidth returned a real edge id")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic on an invalid tree")
		}
	}()
	NewBuilder().MustBuild()
}

// TestSortByTinLarge sorts every node of a 40-spine caterpillar, shuffled,
// larger than any multicast group the tests draw, and checks the tin
// ordering.
func TestSortByTinLarge(t *testing.T) {
	spine := make([]float64, 40)
	for i := range spine {
		spine[i] = 2
	}
	tree, err := Caterpillar(spine, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ns := append([]NodeID(nil), tree.Preorder()...)
	rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
	sortByTin(tree, ns)
	for i := 1; i < len(ns); i++ {
		if tree.tin[ns[i-1]] > tree.tin[ns[i]] {
			t.Fatalf("position %d out of tin order", i)
		}
	}
}

// TestDirectedAccessors covers the G† views the protocols consume:
// Tree, Children, and subtree compute counts.
func TestDirectedAccessors(t *testing.T) {
	tree := Figure1b()
	loads := make(Loads, tree.NumNodes())
	for i, v := range tree.ComputeNodes() {
		loads[v] = int64(100 * (i + 1))
	}
	d := Orient(tree, loads)
	if d.Tree() != tree {
		t.Error("Tree() does not return the underlying tree")
	}
	// Children lists invert Parent exactly.
	for v := NodeID(0); int(v) < tree.NumNodes(); v++ {
		for _, c := range d.Children(v) {
			if d.Parent(c) != v {
				t.Fatalf("child %d of %d has parent %d", c, v, d.Parent(c))
			}
		}
	}
	cnt := d.SubtreeComputeCount()
	if cnt[d.Root()] != tree.NumCompute() {
		t.Errorf("root subtree holds %d compute nodes, want %d", cnt[d.Root()], tree.NumCompute())
	}
	for v := NodeID(0); int(v) < tree.NumNodes(); v++ {
		want := 0
		if tree.IsCompute(v) {
			want = 1
		}
		for _, c := range d.Children(v) {
			want += cnt[c]
		}
		if cnt[v] != want {
			t.Errorf("SubtreeComputeCount[%d] = %d, want %d", v, cnt[v], want)
		}
	}
	if s := d.StringDirected(); !strings.Contains(s, "w1") {
		t.Errorf("StringDirected misses the hub:\n%s", s)
	}
}

// TestGenerateErrors drives every generator rejection.
func TestGenerateErrors(t *testing.T) {
	if _, err := Star(nil); err == nil {
		t.Error("empty star accepted")
	}
	if _, err := UniformStar(-3, 1); err == nil {
		t.Error("star of -3 compute nodes accepted")
	}
	if _, err := TwoTier([]int{2}, []float64{1, 2}, 1); err == nil {
		t.Error("mismatched racks/uplinks accepted")
	}
	if _, err := TwoTier([]int{-1, 2}, []float64{1, 2}, 1); err == nil {
		t.Error("rack of -1 compute nodes accepted")
	}
	if _, err := FatTree(0, 2, 1, 1); err == nil {
		t.Error("zero-level fat tree accepted")
	}
	if _, err := Caterpillar(nil, 1); err == nil {
		t.Error("empty caterpillar accepted")
	}
	if _, err := Random(rand.New(rand.NewSource(1)), 0, 1, 1, 2); err == nil {
		t.Error("empty random tree accepted")
	}
	if tree := Figure1a(); tree.NumCompute() != 6 {
		t.Errorf("Figure1a has %d compute nodes, want 6", tree.NumCompute())
	}
}
