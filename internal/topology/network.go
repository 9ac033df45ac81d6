package topology

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Named construction errors. Every error that Builder, GraphBuilder, the
// spec decoders (FromSpec, GraphFromSpec, ParseJSON, ParseGraphJSON) or a
// Validate returns for a malformed network wraps exactly one of these, so
// callers can branch with errors.Is. A spec that fails as a tree with
// ErrNotTree may still be a valid general network.
var (
	ErrEmpty        = errors.New("no nodes")
	ErrNoCompute    = errors.New("no compute nodes")
	ErrUnknownNode  = errors.New("unknown node")
	ErrSelfLoop     = errors.New("self-loop")
	ErrBadBandwidth = errors.New("invalid bandwidth")
	ErrNotTree      = errors.New("not a tree") // edge count, cycle, or duplicate link
	ErrDisconnected = errors.New("not connected")
)

// Spec is the JSON-serializable description of a network, used by the
// command line tools. Trees and general networks share it; a graph spec
// is simply one whose edge set is not a tree. Example:
//
//	{
//	  "nodes": [
//	    {"name": "w", "compute": false},
//	    {"name": "v1", "compute": true},
//	    {"name": "v2", "compute": true}
//	  ],
//	  "edges": [
//	    {"a": 1, "b": 0, "bw": 10},
//	    {"a": 2, "b": 0, "bw": 1}
//	  ]
//	}
//
// A bandwidth of -1 denotes +Inf (JSON has no literal for infinity); only
// a tree may have one.
type Spec struct {
	Nodes []SpecNode `json:"nodes"`
	Edges []SpecEdge `json:"edges"`
}

// SpecNode describes one node of a Spec.
type SpecNode struct {
	Name    string `json:"name"`
	Compute bool   `json:"compute"`
}

// SpecEdge describes one undirected edge of a Spec by node indices.
type SpecEdge struct {
	A  int     `json:"a"`
	B  int     `json:"b"`
	BW float64 `json:"bw"`
}

// network is the node and link table of a Tree and of a Graph: node names
// and compute flags, insertion-ordered adjacency, per-link endpoints and
// bandwidths, and the compute nodes in insertion order.
type network struct {
	names   []string
	compute []bool
	adj     [][]Half // insertion-ordered adjacency; defines left-to-right order

	endA, endB []NodeID  // endpoints per edge
	bw         []float64 // bandwidth per edge

	computeList []NodeID
}

// NumNodes reports the number of nodes.
func (n *network) NumNodes() int { return len(n.names) }

// NumEdges reports the number of undirected edges, counting parallel
// edges individually (a Tree has NumNodes-1).
func (n *network) NumEdges() int { return len(n.bw) }

// NumCompute reports the number of compute nodes.
func (n *network) NumCompute() int { return len(n.computeList) }

// Name reports the node's name.
func (n *network) Name(v NodeID) string { return n.names[v] }

// IsCompute reports whether v is a compute node.
func (n *network) IsCompute(v NodeID) bool { return n.compute[v] }

// Bandwidth reports the bandwidth of edge e.
func (n *network) Bandwidth(e EdgeID) float64 { return n.bw[e] }

// Endpoints reports the two endpoints of edge e in insertion order.
func (n *network) Endpoints(e EdgeID) (NodeID, NodeID) { return n.endA[e], n.endB[e] }

// Neighbors reports the adjacency list of v in insertion order. The
// returned slice is shared with the network and must not be modified.
func (n *network) Neighbors(v NodeID) []Half { return n.adj[v] }

// Degree reports the degree of v, counting parallel edges individually.
func (n *network) Degree(v NodeID) int { return len(n.adj[v]) }

// ComputeNodes reports all compute nodes in insertion order. The returned
// slice is shared with the network and must not be modified.
func (n *network) ComputeNodes() []NodeID { return n.computeList }

// ToSpec converts the network to its serializable Spec; +Inf bandwidths
// become -1.
func (n *network) ToSpec() Spec {
	s := Spec{
		Nodes: make([]SpecNode, n.NumNodes()),
		Edges: make([]SpecEdge, n.NumEdges()),
	}
	for v := range s.Nodes {
		s.Nodes[v] = SpecNode{Name: n.names[v], Compute: n.compute[v]}
	}
	for e := range s.Edges {
		bw := n.bw[e]
		if math.IsInf(bw, 1) {
			bw = -1
		}
		s.Edges[e] = SpecEdge{A: int(n.endA[e]), B: int(n.endB[e]), BW: bw}
	}
	return s
}

// MarshalJSON encodes the network as its Spec.
func (n *network) MarshalJSON() ([]byte, error) { return json.Marshal(n.ToSpec()) }

// node names v in an error message: `1 ("a")`.
func (n *network) node(v NodeID) string { return fmt.Sprintf("%d (%q)", v, n.names[v]) }

// checkLink reports what is wrong with edge e = {u, v} of bandwidth w: a
// self-loop, a bandwidth that is not positive, or, when finite is set, an
// infinite one.
func (n *network) checkLink(e int, u, v NodeID, w float64, finite bool) error {
	switch {
	case u == v:
		return fmt.Errorf("topology: edge %d: %w on node %s", e, ErrSelfLoop, n.node(u))
	case !(w > 0):
		return fmt.Errorf("topology: edge %d (%s-%s): %w: %v (want > 0)", e, n.node(u), n.node(v), ErrBadBandwidth, w)
	case finite && math.IsInf(w, 1):
		return fmt.Errorf("topology: edge %d (%s-%s): %w: %v (cuts of a general network need finite capacities; -1 means +Inf only in a tree)",
			e, n.node(u), n.node(v), ErrBadBandwidth, w)
	}
	return nil
}

// check reports the first thing every kind of network needs and n lacks:
// a node, a compute node, and valid links (finite ones when finite is
// set). kind names the network in the message.
func (n *network) check(kind string, finite bool) error {
	if len(n.names) == 0 {
		return fmt.Errorf("topology: empty %s: %w", kind, ErrEmpty)
	}
	if len(n.computeList) == 0 {
		return fmt.Errorf("topology: %s has %w (%d nodes are all routers)", kind, ErrNoCompute, len(n.names))
	}
	for e, w := range n.bw {
		if err := n.checkLink(e, n.endA[e], n.endB[e], w, finite); err != nil {
			return err
		}
	}
	return nil
}

// links is the construction core of Builder and GraphBuilder. It appends
// nodes and links to a network table and keeps the first error; after
// one, Link returns NoEdge and Build reports it.
type links struct {
	net network
	err error
}

// Compute adds a compute node and returns its id.
func (l *links) Compute(name string) NodeID { return l.add(name, true) }

// Router adds a routing-only node and returns its id.
func (l *links) Router(name string) NodeID { return l.add(name, false) }

// add appends a node; an empty name becomes v<id> for a compute node and
// w<id> for a router.
func (l *links) add(name string, compute bool) NodeID {
	n := &l.net
	id := NodeID(len(n.names))
	if name == "" {
		kind := "w"
		if compute {
			kind = "v"
		}
		name = fmt.Sprintf("%s%d", kind, id)
	}
	n.names = append(n.names, name)
	n.compute = append(n.compute, compute)
	n.adj = append(n.adj, nil)
	if compute {
		n.computeList = append(n.computeList, id)
	}
	return id
}

// Link connects u and v with a symmetric link of the given bandwidth and
// returns the edge id. Bandwidth must be positive; math.Inf(1) models a
// free link (used by the leaf normalization of §2.1), which a Tree accepts
// and a Graph's Build rejects. Parallel links are allowed here; a Tree's
// Build rejects them.
func (l *links) Link(u, v NodeID, bandwidth float64) EdgeID {
	return l.link(int(u), int(v), bandwidth)
}

// link is Link on int endpoints, so a spec index is range-checked before
// it is narrowed to a NodeID.
func (l *links) link(a, b int, bandwidth float64) EdgeID {
	n := &l.net
	if l.err != nil {
		return NoEdge
	}
	id := len(n.bw)
	if a < 0 || a >= len(n.names) || b < 0 || b >= len(n.names) {
		l.err = fmt.Errorf("topology: edge %d (%d-%d): %w (%d nodes)", id, a, b, ErrUnknownNode, len(n.names))
		return NoEdge
	}
	u, v := NodeID(a), NodeID(b)
	if l.err = n.checkLink(id, u, v, bandwidth, false); l.err != nil {
		return NoEdge
	}
	n.endA = append(n.endA, u)
	n.endB = append(n.endB, v)
	n.bw = append(n.bw, bandwidth)
	n.adj[u] = append(n.adj[u], Half{To: v, Edge: EdgeID(id)})
	n.adj[v] = append(n.adj[v], Half{To: u, Edge: EdgeID(id)})
	return EdgeID(id)
}

// decode adds s's nodes and edges in order, reading a bandwidth of -1 as
// +Inf.
func (l *links) decode(s Spec) {
	for _, n := range s.Nodes {
		l.add(n.Name, n.Compute)
	}
	for _, e := range s.Edges {
		bw := e.BW
		if bw == -1 {
			bw = math.Inf(1)
		}
		l.link(e.A, e.B, bw)
	}
}

// parseSpec decodes Spec JSON and builds it with from.
func parseSpec[T any](data []byte, from func(Spec) (T, error)) (T, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		var zero T
		return zero, fmt.Errorf("topology: %w", err)
	}
	return from(s)
}

// must is Build for static networks: it panics on error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
