package topology

import (
	"math"
	"math/rand"
	"testing"
)

// refMaxFlow is an independent Edmonds–Karp reference implementation on
// a dense capacity matrix: BFS shortest augmenting paths, parallel edges
// summed. It shares no code with the production flowNet (CSR arcs,
// Dinic), so an agreement between the two is evidence for both.
func refMaxFlow(g *Graph, s, t NodeID) float64 {
	n := g.NumNodes()
	cap := make([][]float64, n)
	for i := range cap {
		cap[i] = make([]float64, n)
	}
	for e := 0; e < g.NumEdges(); e++ {
		a, b := g.Endpoints(EdgeID(e))
		w := g.Bandwidth(EdgeID(e))
		cap[a][b] += w
		cap[b][a] += w
	}
	const eps = 1e-12
	var flow float64
	prev := make([]int, n)
	for {
		for i := range prev {
			prev[i] = -1
		}
		prev[s] = int(s)
		queue := []int{int(s)}
		for len(queue) > 0 && prev[t] == -1 {
			v := queue[0]
			queue = queue[1:]
			for w := 0; w < n; w++ {
				if cap[v][w] > eps && prev[w] == -1 {
					prev[w] = v
					queue = append(queue, w)
				}
			}
		}
		if prev[t] == -1 {
			return flow
		}
		bottleneck := math.Inf(1)
		for v := int(t); v != int(s); v = prev[v] {
			if cap[prev[v]][v] < bottleneck {
				bottleneck = cap[prev[v]][v]
			}
		}
		for v := int(t); v != int(s); v = prev[v] {
			cap[prev[v]][v] -= bottleneck
			cap[v][prev[v]] += bottleneck
		}
		flow += bottleneck
	}
}

// treePathMinBW reports the minimum edge bandwidth on the tree path
// between u and v — the cut-tree estimate of their min cut.
func treePathMinBW(t *Tree, u, v NodeID) float64 {
	minBW := math.Inf(1)
	for u != v {
		if t.Depth(u) < t.Depth(v) {
			u, v = v, u
		}
		p, e := t.Parent(u)
		if w := t.Bandwidth(e); w < minBW {
			minBW = w
		}
		u = p
	}
	return minBW
}

// checkGomoryHuEquivalence verifies the defining property of the cut
// tree on sampled node pairs: the minimum tree-path bandwidth equals the
// reference max-flow in the original graph. With maxPairs <= 0 every
// pair is checked.
func checkGomoryHuEquivalence(t *testing.T, g *Graph, tree *Tree, rng *rand.Rand, maxPairs int) {
	t.Helper()
	n := g.NumNodes()
	type pair struct{ u, v NodeID }
	var pairs []pair
	if maxPairs <= 0 || n*(n-1)/2 <= maxPairs {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, pair{NodeID(u), NodeID(v)})
			}
		}
	} else {
		for len(pairs) < maxPairs {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				pairs = append(pairs, pair{NodeID(u), NodeID(v)})
			}
		}
	}
	for _, p := range pairs {
		got := treePathMinBW(tree, p.u, p.v)
		want := refMaxFlow(g, p.u, p.v)
		if !flowsClose(got, want) {
			t.Errorf("pair (%s, %s): tree path min %v, reference max-flow %v",
				g.Name(p.u), g.Name(p.v), got, want)
		}
	}
}

// flowsClose tolerates only float accumulation noise between the two
// max-flow implementations.
func flowsClose(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

// checkNodesPreserved verifies FromGraph kept the node universe intact:
// same count, names, compute flags, and insertion order.
func checkNodesPreserved(t *testing.T, g *Graph, tree *Tree) {
	t.Helper()
	if tree.NumNodes() != g.NumNodes() {
		t.Fatalf("cut tree has %d nodes, graph has %d", tree.NumNodes(), g.NumNodes())
	}
	if tree.NumCompute() != g.NumCompute() {
		t.Fatalf("cut tree has %d compute nodes, graph has %d", tree.NumCompute(), g.NumCompute())
	}
	for v := 0; v < g.NumNodes(); v++ {
		id := NodeID(v)
		if tree.Name(id) != g.Name(id) || tree.IsCompute(id) != g.IsCompute(id) {
			t.Fatalf("node %d: tree (%q, compute=%v) != graph (%q, compute=%v)",
				v, tree.Name(id), tree.IsCompute(id), g.Name(id), g.IsCompute(id))
		}
	}
}

// randGraph builds a seeded random connected multigraph with dyadic
// bandwidths (multiples of 1/4), so both max-flow implementations
// compute exact sums and the equivalence check is near-exact.
func randGraph(rng *rand.Rand, maxN int) *Graph {
	n := 2 + rng.Intn(maxN-1)
	b := NewGraphBuilder()
	nodes := make([]NodeID, n)
	draw := func() float64 { return float64(1+rng.Intn(64)) / 4 }
	for i := range nodes {
		// Node 0 is always compute so every draw is a valid graph.
		if i > 0 && rng.Intn(4) == 0 {
			nodes[i] = b.Router("")
		} else {
			nodes[i] = b.Compute("")
		}
		if i > 0 {
			b.Link(nodes[i], nodes[rng.Intn(i)], draw())
		}
	}
	extra := rng.Intn(2 * n)
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.Link(nodes[u], nodes[v], draw())
		}
	}
	return b.MustBuild()
}

// TestFromGraphEquivalenceFixtures: on every graph-network generator
// fixture, the cut tree's path minima equal the reference max-flows for
// all node pairs, and the node universe is preserved.
func TestFromGraphEquivalenceFixtures(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fixtures := []struct {
		name  string
		build func() (*Graph, error)
	}{
		{"mesh-3x4", func() (*Graph, error) { return Mesh(3, 4, 2.5) }},
		{"ring-of-racks", func() (*Graph, error) { return RingOfRacks(4, 2, 3, 8) }},
		{"clos", func() (*Graph, error) { return Clos(2, 3, 2, 4, 10) }},
		{"randomized-fanout", func() (*Graph, error) {
			return RandomizedFanout(rand.New(rand.NewSource(5)), 10, 2, 0.5, 4)
		}},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			g, err := fx.build()
			if err != nil {
				t.Fatal(err)
			}
			tree, err := FromGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
			checkNodesPreserved(t, g, tree)
			checkGomoryHuEquivalence(t, g, tree, rng, 0)
		})
	}
}

// TestFromGraphEquivalenceRandom: the Gomory–Hu property holds on 60
// seeded random multigraphs (cycles, parallel edges, router mixes).
func TestFromGraphEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, 18)
		tree, err := FromGraph(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkNodesPreserved(t, g, tree)
		checkGomoryHuEquivalence(t, g, tree, rng, 0)
	}
}

// TestFromGraphDeterministic: the same graph always yields the same cut
// tree, spec-for-spec.
func TestFromGraphDeterministic(t *testing.T) {
	g, err := RingOfRacks(5, 3, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	a, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := a.MarshalJSON()
	sb, _ := b.MarshalJSON()
	if string(sa) != string(sb) {
		t.Fatalf("cut tree not deterministic:\n%s\nvs\n%s", sa, sb)
	}
}

// TestFromGraphOnTree: a graph that happens to be a tree compresses to a
// tree with the same pairwise bottlenecks as the original.
func TestFromGraphOnTree(t *testing.T) {
	b := NewGraphBuilder()
	w := b.Router("w")
	v1 := b.Compute("v1")
	v2 := b.Compute("v2")
	v3 := b.Compute("v3")
	b.Link(v1, w, 4)
	b.Link(v2, w, 2)
	b.Link(v3, w, 1)
	g := b.MustBuild()
	tree, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := treePathMinBW(tree, v1, v2); got != 2 {
		t.Errorf("mincut(v1,v2) = %v, want 2", got)
	}
	if got := treePathMinBW(tree, v1, v3); got != 1 {
		t.Errorf("mincut(v1,v3) = %v, want 1", got)
	}
}

// TestFromGraphParallelEdgesAdd: parallel links contribute additive cut
// capacity — a doubled link doubles the pair's min cut.
func TestFromGraphParallelEdgesAdd(t *testing.T) {
	b := NewGraphBuilder()
	u := b.Compute("u")
	v := b.Compute("v")
	b.Link(u, v, 3)
	b.Link(u, v, 3)
	g := b.MustBuild()
	tree, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := treePathMinBW(tree, u, v); got != 6 {
		t.Errorf("mincut(u,v) = %v, want 6 (3+3 over two parallel links)", got)
	}
}

// TestFromGraphSingleNode: the degenerate one-node graph compresses to
// the one-node tree.
func TestFromGraphSingleNode(t *testing.T) {
	b := NewGraphBuilder()
	b.Compute("only")
	g := b.MustBuild()
	tree, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 1 || tree.NumCompute() != 1 {
		t.Fatalf("got %d nodes / %d compute, want 1/1", tree.NumNodes(), tree.NumCompute())
	}
}

// TestFromGraphRejectsInvalid: FromGraph revalidates, so a
// hand-constructed disconnected graph is rejected rather than producing
// a partial tree.
func TestFromGraphRejectsInvalid(t *testing.T) {
	g := &Graph{network{
		names:       []string{"a", "b"},
		compute:     []bool{true, true},
		adj:         make([][]Half, 2),
		computeList: []NodeID{0, 1},
	}}
	if _, err := FromGraph(g); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}
