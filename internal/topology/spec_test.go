package topology

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestSpecErrors runs the mistakes hand-written spec files contain through
// both readings of a spec, as a tree (FromSpec, ParseJSON) and as a
// general network (GraphFromSpec, ParseGraphJSON). Each rejection wraps
// its named sentinel in each reading, and the message names the offending
// entry rather than a generic "not a tree".
func TestSpecErrors(t *testing.T) {
	router := SpecNode{Name: "w"}
	compute := func(name string) SpecNode { return SpecNode{Name: name, Compute: true} }
	a, b, c := compute("a"), compute("b"), compute("c")
	cases := []struct {
		name        string
		spec        Spec
		tree, graph error  // nil: the reading accepts the spec
		want        string // in the tree error, or the graph error if the tree reading accepts
	}{
		{"empty", Spec{}, ErrEmpty, ErrEmpty, "no nodes"},
		{"no-compute", Spec{Nodes: []SpecNode{router}}, ErrNoCompute, ErrNoCompute, "no compute nodes"},
		{"edge-count", Spec{Nodes: []SpecNode{router, a, b}, Edges: []SpecEdge{{A: 1, B: 0, BW: 2}}},
			ErrNotTree, ErrDisconnected, "a tree needs exactly 2"},
		{"not-tree", Spec{Nodes: []SpecNode{a, b, c}, Edges: []SpecEdge{{A: 0, B: 1, BW: 1}}},
			ErrNotTree, ErrDisconnected, "a tree needs exactly 2"},
		{"unknown-node", Spec{Nodes: []SpecNode{router, a}, Edges: []SpecEdge{{A: 1, B: 7, BW: 2}}},
			ErrUnknownNode, ErrUnknownNode, "edge 0 (1-7): unknown node"},
		// An index past int32 must not wrap to a real node.
		{"wide-index", Spec{Nodes: []SpecNode{a, b}, Edges: []SpecEdge{{A: 0, B: 1 << 32, BW: 2}}},
			ErrUnknownNode, ErrUnknownNode, "unknown node"},
		{"self-loop", Spec{Nodes: []SpecNode{router, a}, Edges: []SpecEdge{{A: 1, B: 1, BW: 2}}},
			ErrSelfLoop, ErrSelfLoop, `self-loop on node 1 ("a")`},
		{"duplicate-edge", Spec{Nodes: []SpecNode{router, a, b}, Edges: []SpecEdge{{A: 1, B: 0, BW: 2}, {A: 0, B: 1, BW: 3}}},
			ErrNotTree, ErrDisconnected, `edge 1 duplicates edge 0 between nodes 1 ("a") and 0 ("w")`},
		{"dup-edge", Spec{Nodes: []SpecNode{a, b, c}, Edges: []SpecEdge{{A: 0, B: 1, BW: 1}, {A: 1, B: 0, BW: 1}}},
			ErrNotTree, ErrDisconnected, "duplicates edge 0"},
		// n-1 edges that close a cycle leave a node unreached: as a tree
		// the cycle is found from the root's side, or the unreached nodes
		// are.
		{"cycle", Spec{Nodes: []SpecNode{a, b, c, compute("d")},
			Edges: []SpecEdge{{A: 0, B: 1, BW: 1}, {A: 1, B: 2, BW: 1}, {A: 2, B: 0, BW: 1}}},
			ErrNotTree, ErrDisconnected, `edge 2 (2 ("c")-0 ("a")) closes a cycle`},
		{"cycle-unreached", Spec{Nodes: []SpecNode{router, a, b, c},
			Edges: []SpecEdge{{A: 1, B: 2, BW: 1}, {A: 2, B: 3, BW: 1}, {A: 3, B: 1, BW: 1}}},
			ErrNotTree, ErrDisconnected, `3 of 4 nodes are unreachable from node 0 ("w")`},
		{"bad-bandwidth", Spec{Nodes: []SpecNode{router, a, b}, Edges: []SpecEdge{{A: 1, B: 0, BW: 2}, {A: 2, B: 0, BW: -3}}},
			ErrBadBandwidth, ErrBadBandwidth, "invalid bandwidth: -3"},
		{"zero-bandwidth", Spec{Nodes: []SpecNode{a, b}, Edges: []SpecEdge{{A: 0, B: 1, BW: 0}}},
			ErrBadBandwidth, ErrBadBandwidth, `edge 0 (0 ("a")-1 ("b")): invalid bandwidth: 0`},
		// -1, the JSON stand-in for +Inf, is a valid tree bandwidth and an
		// invalid graph bandwidth.
		{"infinite-bandwidth", Spec{Nodes: []SpecNode{router, a, b}, Edges: []SpecEdge{{A: 1, B: 0, BW: -1}, {A: 2, B: 0, BW: 3}}},
			nil, ErrBadBandwidth, "invalid bandwidth: +Inf"},
	}
	sentinels := []error{ErrEmpty, ErrNoCompute, ErrUnknownNode, ErrSelfLoop, ErrBadBandwidth, ErrNotTree, ErrDisconnected}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			_, fromSpec := FromSpec(tc.spec)
			_, parseJSON := ParseJSON(data)
			_, graphFromSpec := GraphFromSpec(tc.spec)
			_, parseGraphJSON := ParseGraphJSON(data)
			for _, r := range []struct {
				name      string
				got, want error
			}{
				{"FromSpec", fromSpec, tc.tree},
				{"ParseJSON", parseJSON, tc.tree},
				{"GraphFromSpec", graphFromSpec, tc.graph},
				{"ParseGraphJSON", parseGraphJSON, tc.graph},
			} {
				if r.want == nil {
					if r.got != nil {
						t.Errorf("%s rejected a valid spec: %v", r.name, r.got)
					}
					continue
				}
				if !errors.Is(r.got, r.want) {
					t.Errorf("%s: got %v, want %v", r.name, r.got, r.want)
				}
				wrapped := 0
				for _, s := range sentinels {
					if errors.Is(r.got, s) {
						wrapped++
					}
				}
				if wrapped != 1 {
					t.Errorf("%s: %v wraps %d named sentinels, want 1", r.name, r.got, wrapped)
				}
			}
			msg := fromSpec
			if msg == nil {
				msg = graphFromSpec
			}
			if !strings.Contains(msg.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", msg, tc.want)
			}
		})
	}
}
