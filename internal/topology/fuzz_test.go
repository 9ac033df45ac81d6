package topology

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// fuzzGraph decodes raw fuzz bytes into a small weighted multigraph.
// Byte 0 picks the node count, one byte per node picks compute/router,
// and each following byte triple (u, v, w) adds an edge. Decoding never
// fails — invalid draws (self-loops, zero weights) are skipped — so the
// fuzzer explores graph shapes, not decoder error paths. The result may
// still be invalid (disconnected, all routers); callers Build and branch
// on the error.
func fuzzGraph(data []byte) (*Graph, error) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		c := data[0]
		data = data[1:]
		return c, true
	}
	nb, _ := next()
	n := 2 + int(nb)%15
	b := NewGraphBuilder()
	for i := 0; i < n; i++ {
		c, _ := next()
		if c%4 == 0 {
			b.Router("")
		} else {
			b.Compute("")
		}
	}
	for {
		ub, ok1 := next()
		vb, ok2 := next()
		wb, ok3 := next()
		if !ok1 || !ok2 || !ok3 {
			break
		}
		u, v := NodeID(int(ub)%n), NodeID(int(vb)%n)
		if u == v {
			continue
		}
		b.Link(u, v, float64(1+int(wb))/8)
	}
	return b.Build()
}

// FuzzFromGraph drives FromGraph over arbitrary byte-derived
// multigraphs and asserts the cut-tree invariants: the tree validates
// (connected, n−1 edges, positive bandwidths), the node universe is
// preserved, and on a sampled pair the tree path minimum matches the
// independent Edmonds–Karp reference.
func FuzzFromGraph(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1, 8})
	f.Add([]byte{3, 1, 1, 0, 1, 0, 1, 4, 0, 1, 4, 1, 2, 2, 2, 0, 2})
	f.Add([]byte{9, 1, 1, 1, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 5, 1, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := fuzzGraph(data)
		if err != nil {
			return // invalid draw; nothing to assert
		}
		tree, err := FromGraph(g)
		if err != nil {
			t.Fatalf("FromGraph failed on a valid graph: %v", err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("cut tree does not validate: %v", err)
		}
		checkNodesPreserved(t, g, tree)
		if n := g.NumNodes(); n > 1 {
			// One reference-checked pair per input keeps the smoke fast
			// while still exercising the equivalence property.
			u := NodeID(0)
			v := NodeID(1 + int(len(data))%(n-1))
			got := treePathMinBW(tree, u, v)
			want := refMaxFlow(g, u, v)
			if !flowsClose(got, want) {
				t.Fatalf("pair (%d, %d): tree path min %v, reference max-flow %v", u, v, got, want)
			}
		}
	})
}

// FuzzTopologyJSON feeds arbitrary bytes through both spec parsers and
// asserts re-emit/reparse identity: any input either parser accepts must
// marshal to a canonical form that reparses to the same bytes.
func FuzzTopologyJSON(f *testing.F) {
	sb := NewBuilder()
	hub := sb.Router("w")
	for i := 0; i < 3; i++ {
		sb.Link(sb.Compute(""), hub, 2)
	}
	starJSON, _ := sb.MustBuild().MarshalJSON()
	f.Add(starJSON)
	ring, _ := RingOfRacks(3, 1, 2, 4)
	ringJSON, _ := ring.MarshalJSON()
	f.Add(ringJSON)
	fan, _ := RandomizedFanout(rand.New(rand.NewSource(1)), 5, 1, 0.5, 2)
	fanJSON, _ := fan.MarshalJSON()
	f.Add(fanJSON)
	f.Add([]byte(`{"nodes":[{"name":"a","compute":true},{"name":"b","compute":true}],"edges":[{"a":0,"b":1,"bw":-1}]}`))
	f.Add([]byte(`{"nodes":[],"edges":[]}`))
	// n-1 links that close a triangle beside an isolated node, and links
	// that join one pair twice: neither is a tree.
	f.Add([]byte(`{"nodes":[{"name":"a","compute":true},{"name":"b","compute":true},{"name":"c","compute":true},{"name":"d","compute":true}],"edges":[{"a":0,"b":1,"bw":1},{"a":1,"b":2,"bw":1},{"a":2,"b":0,"bw":1}]}`))
	f.Add([]byte(`{"nodes":[{"name":"a","compute":true},{"name":"b","compute":true}],"edges":[{"a":0,"b":1,"bw":1},{"a":1,"b":0,"bw":2}]}`))
	f.Add([]byte(`{"nodes":[{"name":"a","compute":true},{"name":"b","compute":true},{"name":"c","compute":true}],"edges":[{"a":0,"b":1,"bw":1},{"a":1,"b":0,"bw":2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := ParseJSON(data); err == nil {
			out, err := tr.MarshalJSON()
			if err != nil {
				t.Fatalf("accepted tree spec failed to marshal: %v", err)
			}
			tr2, err := ParseJSON(out)
			if err != nil {
				t.Fatalf("re-emitted tree spec rejected: %v", err)
			}
			out2, _ := tr2.MarshalJSON()
			if !bytes.Equal(out, out2) {
				t.Fatalf("tree spec not a round-trip fixed point:\n%s\nvs\n%s", out, out2)
			}
		}
		if g, err := ParseGraphJSON(data); err == nil {
			out, err := g.MarshalJSON()
			if err != nil {
				t.Fatalf("accepted graph spec failed to marshal: %v", err)
			}
			g2, err := ParseGraphJSON(out)
			if err != nil {
				t.Fatalf("re-emitted graph spec rejected: %v", err)
			}
			out2, _ := g2.MarshalJSON()
			if !bytes.Equal(out, out2) {
				t.Fatalf("graph spec not a round-trip fixed point:\n%s\nvs\n%s", out, out2)
			}
		}
	})
}

// FuzzPathAccumulator checks tree-difference counting against per-hop
// parent walks. Byte 0 says how many of the following bytes describe the
// tree (a fuzzGraph multigraph, compressed by FromGraph); the rest are
// transfers: a control byte (unicast or multicast, which of two shards, the
// charge), then two endpoints or a terminal count and that many terminals,
// every node taken modulo the node count so that terminals repeat. One
// accumulator given every transfer, and two shards merged, must both flush
// to the walked per-edge traffic and report its cost and bottleneck.
func FuzzPathAccumulator(f *testing.F) {
	// Two leaves under a router: a unicast, a multicast naming a terminal
	// twice, a transfer from a node to itself.
	f.Add([]byte{10, 1, 1, 1, 0, 0, 2, 8, 1, 2, 8, 4, 0, 1, 11, 2, 0, 1, 0, 0, 1, 1})
	// A ring of eight with a chord, so the tree is a Gomory–Hu tree.
	f.Add([]byte{36, 6, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 8, 1, 2, 4, 2, 3, 4, 3, 4, 2, 4, 5, 8, 5, 6, 1, 6, 7, 3, 7, 0, 5, 1, 4, 7,
		5, 3, 7, 15, 4, 0, 7, 7, 3, 2, 2, 6, 6, 9, 0, 5, 13, 1, 2, 2, 7, 1, 6, 10, 5, 0, 1, 2, 3, 4, 5})
	// A star with equal links and equal loads: the bottleneck is a tie.
	f.Add([]byte{14, 2, 0, 1, 1, 1, 0, 1, 8, 0, 2, 8, 0, 3, 8, 4, 1, 2, 4, 2, 3, 6, 3, 1})
	// A line of compute nodes: ancestors and descendants of one another.
	f.Add([]byte{14, 2, 1, 1, 1, 1, 0, 1, 2, 1, 2, 2, 2, 3, 2, 4, 0, 3, 5, 3, 0, 14, 3, 3, 1, 0, 2, 8, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cut := min(1+int(data[0]), len(data))
		g, err := fuzzGraph(data[1:cut])
		if err != nil {
			return // invalid draw; nothing to assert
		}
		tr, err := FromGraph(g)
		if err != nil {
			t.Fatalf("FromGraph failed on a valid graph: %v", err)
		}
		n := tr.NumNodes()
		want := make([]int64, tr.NumEdges())
		stamp := make([]int, tr.NumEdges())
		// walk charges c to every edge between u and v not yet stamped by
		// this transfer.
		walk := func(u, v NodeID, c int64, id int) {
			for u != v {
				if tr.depth[u] < tr.depth[v] {
					u, v = v, u
				}
				if e := tr.parentEdge[u]; stamp[e] != id {
					stamp[e] = id
					want[e] += c
				}
				u = tr.parent[u]
			}
		}
		single := NewPathAccumulator(tr)
		shards := [2]*PathAccumulator{NewPathAccumulator(tr), NewPathAccumulator(tr)}
		ops := data[cut:]
		for id := 1; len(ops) >= 3; id++ {
			ctl := ops[0]
			shard, c := shards[ctl>>1&1], int64(ctl>>2&3)
			if ctl&1 == 0 {
				u, v := NodeID(int(ops[1])%n), NodeID(int(ops[2])%n)
				ops = ops[3:]
				single.AddPath(u, v, c)
				shard.AddPath(u, v, c)
				walk(u, v, c, id)
				continue
			}
			k := min(1+int(ops[1])%6, len(ops)-2)
			terms := make([]NodeID, k)
			for i := range terms {
				terms[i] = NodeID(int(ops[2+i]) % n)
			}
			ops = ops[2+k:]
			single.AddSteiner(terms, c)
			shard.AddSteiner(terms, c)
			for _, v := range terms[1:] {
				walk(terms[0], v, c, id) // the union of the paths from one terminal
			}
		}

		wantCost, wantEdge := 0.0, NoEdge
		for e, x := range want {
			if c := float64(x) / tr.bw[e]; c > wantCost {
				wantCost, wantEdge = c, EdgeID(e)
			}
		}
		shards[0].MergeFrom(shards[1])
		for name, acc := range map[string]*PathAccumulator{"single": single, "merged": shards[0], "drained": shards[1]} {
			got := make([]int64, tr.NumEdges())
			cost, edge := acc.FlushInto(got)
			if name == "drained" {
				if cost != 0 || edge != NoEdge || !slices.Equal(got, make([]int64, len(got))) {
					t.Fatalf("MergeFrom left traffic behind: %v", got)
				}
				continue
			}
			if !slices.Equal(got, want) || cost != wantCost || edge != wantEdge {
				t.Fatalf("%s accumulator: traffic %v cost %v at edge %d, the walks give %v, %v at %d", name, got, cost, edge, want, wantCost, wantEdge)
			}
		}
	})
}
