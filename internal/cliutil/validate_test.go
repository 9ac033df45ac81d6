package cliutil

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"topompc"
	"topompc/internal/topology"
)

// writeSpec writes spec as a JSON file in dir and returns its @file
// topology argument.
func writeSpec(t *testing.T, dir, name string, spec topology.Spec) string {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return "@" + path
}

// TestValidateSpecErrors exercises every rejection of an @file spec with
// the mistakes hand-written spec files actually contain, and checks that
// the error names the file and the offending entry rather than a generic
// "not a tree". Mistakes of tree shape alone (edge count, duplicate link)
// fall through to the graph reading, which counts the nodes it reached.
func TestValidateSpecErrors(t *testing.T) {
	dir := t.TempDir()
	router := topology.SpecNode{Name: "w", Compute: false}
	compute := func(name string) topology.SpecNode { return topology.SpecNode{Name: name, Compute: true} }
	cases := []struct {
		name string
		spec topology.Spec
		want string
	}{
		{
			name: "empty",
			spec: topology.Spec{},
			want: "no nodes",
		},
		{
			name: "no-compute",
			spec: topology.Spec{Nodes: []topology.SpecNode{router}},
			want: "no compute nodes",
		},
		{
			name: "edge-count",
			spec: topology.Spec{
				Nodes: []topology.SpecNode{router, compute("a"), compute("b")},
				Edges: []topology.SpecEdge{{A: 1, B: 0, BW: 2}},
			},
			want: "graph not connected: reached 2 of 3 nodes",
		},
		{
			name: "unknown-node",
			spec: topology.Spec{
				Nodes: []topology.SpecNode{router, compute("a")},
				Edges: []topology.SpecEdge{{A: 1, B: 7, BW: 2}},
			},
			want: "unknown node",
		},
		{
			name: "self-loop",
			spec: topology.Spec{
				Nodes: []topology.SpecNode{router, compute("a")},
				Edges: []topology.SpecEdge{{A: 1, B: 1, BW: 2}},
			},
			want: `self-loop on node 1 ("a")`,
		},
		{
			name: "duplicate-edge",
			spec: topology.Spec{
				Nodes: []topology.SpecNode{router, compute("a"), compute("b")},
				Edges: []topology.SpecEdge{{A: 1, B: 0, BW: 2}, {A: 0, B: 1, BW: 3}},
			},
			want: "graph not connected: reached 2 of 3 nodes",
		},
		{
			name: "bad-bandwidth",
			spec: topology.Spec{
				Nodes: []topology.SpecNode{router, compute("a"), compute("b")},
				Edges: []topology.SpecEdge{{A: 1, B: 0, BW: 2}, {A: 2, B: 0, BW: -3}},
			},
			want: "invalid bandwidth: -3",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopo(writeSpec(t, dir, tc.name, tc.spec))
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), tc.name+".json") {
				t.Errorf("error %q does not name the file", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// -1 (the JSON stand-in for +Inf) is a valid tree bandwidth.
	ok := topology.Spec{
		Nodes: []topology.SpecNode{router, compute("a"), compute("b")},
		Edges: []topology.SpecEdge{{A: 1, B: 0, BW: -1}, {A: 2, B: 0, BW: 3}},
	}
	if _, err := ParseTopo(writeSpec(t, dir, "ok", ok)); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestValidateSpecNamedErrors: each rejection of an @file spec wraps
// exactly one of topology's named sentinels, so callers can branch with
// errors.Is. A mistake of tree shape alone is reported by the graph
// reading it falls through to.
func TestValidateSpecNamedErrors(t *testing.T) {
	dir := t.TempDir()
	compute := func(name string) topology.SpecNode { return topology.SpecNode{Name: name, Compute: true} }
	two := []topology.SpecNode{compute("a"), compute("b")}
	three := []topology.SpecNode{compute("a"), compute("b"), compute("c")}
	cases := []struct {
		name string
		spec topology.Spec
		want error
	}{
		{"no-nodes", topology.Spec{}, topology.ErrEmpty},
		{"no-compute", topology.Spec{Nodes: []topology.SpecNode{{Name: "w"}}}, topology.ErrNoCompute},
		{"not-tree", topology.Spec{Nodes: three,
			Edges: []topology.SpecEdge{{A: 0, B: 1, BW: 1}}}, topology.ErrDisconnected},
		{"unknown-node", topology.Spec{Nodes: two,
			Edges: []topology.SpecEdge{{A: 0, B: 9, BW: 1}}}, topology.ErrUnknownNode},
		{"self-loop", topology.Spec{Nodes: two,
			Edges: []topology.SpecEdge{{A: 0, B: 0, BW: 1}}}, topology.ErrSelfLoop},
		{"dup-edge", topology.Spec{Nodes: three,
			Edges: []topology.SpecEdge{{A: 0, B: 1, BW: 1}, {A: 1, B: 0, BW: 1}}}, topology.ErrDisconnected},
		{"bad-bw", topology.Spec{Nodes: two,
			Edges: []topology.SpecEdge{{A: 0, B: 1, BW: 0}}}, topology.ErrBadBandwidth},
	}
	sentinels := []error{topology.ErrEmpty, topology.ErrNoCompute, topology.ErrUnknownNode,
		topology.ErrSelfLoop, topology.ErrBadBandwidth, topology.ErrNotTree, topology.ErrDisconnected}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopo(writeSpec(t, dir, tc.name, tc.spec))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			wrapped := 0
			for _, s := range sentinels {
				if errors.Is(err, s) {
					wrapped++
				}
			}
			if wrapped != 1 {
				t.Errorf("%v wraps %d named sentinels, want 1", err, wrapped)
			}
		})
	}
	// A tree may carry -1 (+Inf); a spec that is read as a graph may not.
	inf := topology.Spec{Nodes: two, Edges: []topology.SpecEdge{{A: 0, B: 1, BW: -1}}}
	if _, err := ParseTopo(writeSpec(t, dir, "inf", inf)); err != nil {
		t.Errorf("tree with bw=-1 rejected: %v", err)
	}
	cyc := topology.Spec{Nodes: three, Edges: []topology.SpecEdge{
		{A: 0, B: 1, BW: 1}, {A: 1, B: 2, BW: 1}, {A: 2, B: 0, BW: -1}}}
	if _, err := ParseTopo(writeSpec(t, dir, "inf-cycle", cyc)); !errors.Is(err, topology.ErrBadBandwidth) {
		t.Errorf("graph with bw=-1: got %v, want %v", err, topology.ErrBadBandwidth)
	}
}

// TestParseTopoFileValidation: a malformed file fails through ParseTopo
// with the file name and the precise mistake; a file that merely fails
// the tree-shape rules is reinterpreted as a general network.
func TestParseTopoFileValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, spec string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		return "@" + path
	}

	// A duplicate link between connected nodes is multipath structure:
	// the spec falls back to graph mode and the parallel capacities add.
	dup := write("dup.json", `{"nodes":[{"name":"w"},{"name":"a","compute":true},{"name":"b","compute":true}],
		"edges":[{"a":1,"b":0,"bw":2},{"a":0,"b":1,"bw":3},{"a":2,"b":0,"bw":4}]}`)
	tree, err := ParseTopo(dup)
	if err != nil {
		t.Fatalf("connected multigraph spec rejected: %v", err)
	}
	if tree.NumNodes() != 3 || tree.NumCompute() != 2 {
		t.Fatalf("cut tree has %d nodes / %d compute, want 3/2", tree.NumNodes(), tree.NumCompute())
	}

	// A disconnected multigraph fails with the file name and the graph
	// error, not a misleading tree-shape complaint.
	disc := write("disc.json", `{"nodes":[{"name":"w"},{"name":"a","compute":true},{"name":"b","compute":true}],
		"edges":[{"a":1,"b":0,"bw":2},{"a":0,"b":1,"bw":3}]}`)
	if _, err := ParseTopo(disc); err == nil ||
		!strings.Contains(err.Error(), "disc.json") || !strings.Contains(err.Error(), "not connected") {
		t.Errorf("disconnected multigraph: got %v", err)
	}

	// A self-loop is invalid in both modes; the tree-mode error surfaces.
	loop := write("loop.json", `{"nodes":[{"name":"a","compute":true},{"name":"b","compute":true}],
		"edges":[{"a":0,"b":0,"bw":2}]}`)
	if _, err := ParseTopo(loop); err == nil ||
		!strings.Contains(err.Error(), "loop.json") || !errors.Is(err, topology.ErrSelfLoop) {
		t.Errorf("self-loop: got %v", err)
	}

	// A cyclic spec whose graph validation also fails (bw -1 means +Inf,
	// tree-only) reports the graph-mode bandwidth error.
	cyc := write("cyc.json", `{"nodes":[{"name":"a","compute":true},{"name":"b","compute":true},{"name":"c","compute":true}],
		"edges":[{"a":0,"b":1,"bw":2},{"a":1,"b":2,"bw":2},{"a":2,"b":0,"bw":-1}]}`)
	if _, err := ParseTopo(cyc); err == nil ||
		!strings.Contains(err.Error(), "cyc.json") || !errors.Is(err, topology.ErrBadBandwidth) {
		t.Errorf("cycle with +Inf edge: got %v", err)
	}

	// n-1 edges that close a triangle beside an isolated node pass the
	// tree edge count: the tree reading finds the cycle, and the spec falls
	// through to graph mode, which finds the isolated node.
	tri := write("tri.json", `{"nodes":[{"name":"a","compute":true},{"name":"b","compute":true},{"name":"c","compute":true},{"name":"d","compute":true}],
		"edges":[{"a":0,"b":1,"bw":1},{"a":1,"b":2,"bw":1},{"a":2,"b":0,"bw":1}]}`)
	if _, err := ParseTopo(tri); err == nil ||
		!strings.Contains(err.Error(), "tri.json") || !errors.Is(err, topology.ErrDisconnected) {
		t.Errorf("triangle beside an isolated node: got %v", err)
	}
	// The same triangle with the fourth node linked in is a connected
	// network, read as a graph: its cut tree has the triangle's pairwise
	// min-cut 2 twice and the tail's 1.
	tail := write("tail.json", `{"nodes":[{"name":"a","compute":true},{"name":"b","compute":true},{"name":"c","compute":true},{"name":"d","compute":true}],
		"edges":[{"a":0,"b":1,"bw":1},{"a":1,"b":2,"bw":1},{"a":2,"b":0,"bw":1},{"a":3,"b":0,"bw":1}]}`)
	tree, err = ParseTopo(tail)
	if err != nil {
		t.Fatalf("triangle with a tail: %v", err)
	}
	var cuts []float64
	for e := range tree.NumEdges() {
		cuts = append(cuts, tree.Bandwidth(topology.EdgeID(e)))
	}
	if slices.Sort(cuts); !slices.Equal(cuts, []float64{1, 2, 2}) {
		t.Errorf("triangle with a tail: cut tree bandwidths %v, want [1 2 2]", cuts)
	}
}

// TestParseTopoGraphNames: the named general-network topologies resolve
// through FromGraph to valid trees with the advertised shapes.
func TestParseTopoGraphNames(t *testing.T) {
	shapes := map[string]struct{ nodes, compute int }{
		"mesh":          {16, 16},
		"ring-of-racks": {12, 8},
		"clos":          {11, 6},
		"fanout":        {12, 12},
	}
	for name, want := range shapes {
		tree, err := ParseTopo(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tree.NumNodes() != want.nodes || tree.NumCompute() != want.compute {
			t.Errorf("%s: %d nodes / %d compute, want %d/%d",
				name, tree.NumNodes(), tree.NumCompute(), want.nodes, want.compute)
		}
	}
	// Deterministic: the seeded fanout overlay parses identically twice.
	a, _ := ParseTopo("fanout")
	b, _ := ParseTopo("fanout")
	ja, _ := a.MarshalJSON()
	jb, _ := b.MarshalJSON()
	if string(ja) != string(jb) {
		t.Error("fanout topology is not deterministic across calls")
	}
}

// TestTaskDataErrors: empty clusters and empty inputs are rejected up
// front instead of producing empty fragments that fail deep in a
// protocol.
func TestTaskDataErrors(t *testing.T) {
	spec, ok := topompc.LookupTask("sort")
	if !ok {
		t.Fatal("sort task missing")
	}
	rng := rand.New(rand.NewSource(1))
	placer, err := Placer("uniform", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TaskData(spec, rng, placer, 0, 1000, 0, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "compute node") {
		t.Errorf("p=0: got %v", err)
	}
	if _, err := TaskData(spec, rng, placer, 4, 0, 0, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "positive") {
		t.Errorf("n=0: got %v", err)
	}
	if _, err := TaskData(spec, rng, placer, 4, -5, 0, 0, 1); err == nil {
		t.Error("negative n accepted")
	}
	pair, ok := topompc.LookupTask("intersect")
	if !ok {
		t.Fatal("intersect task missing")
	}
	if _, err := TaskData(pair, rng, placer, 4, 1000, -1, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "non-negative") {
		t.Errorf("sizeR=-1: got %v", err)
	}
}

// TestTaskDataGraph: graph tasks get packed edges whose endpoints decode
// to a plausible vertex range.
func TestTaskDataGraph(t *testing.T) {
	spec, ok := topompc.LookupTask("cc")
	if !ok {
		t.Fatal("cc task missing")
	}
	rng := rand.New(rand.NewSource(2))
	placer, err := Placer("uniform", 2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := TaskData(spec, rng, placer, 4, 1200, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Data) != 4 {
		t.Fatalf("%d fragments, want 4", len(in.Data))
	}
	total := 0
	for _, frag := range in.Data {
		total += len(frag)
		for _, key := range frag {
			e := topompc.DecodeTuple2(key)
			if e.A >= 400 || e.B >= 400 || e.A == e.B {
				t.Fatalf("implausible edge (%d,%d)", e.A, e.B)
			}
		}
	}
	if total < 600 || total > 2400 {
		t.Errorf("generated %d edges for n=1200", total)
	}
}
