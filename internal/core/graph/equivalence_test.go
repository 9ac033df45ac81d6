package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"topompc/internal/netsim"
)

// serializeReport renders every statistic of every round and the per-edge
// and per-node totals, byte for byte, so two runs compare as exact strings.
func serializeReport(r *netsim.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rounds=%d\n", r.NumRounds())
	for _, rd := range r.Rounds {
		fmt.Fprintf(&sb, "round %d cost=%v bottleneck=%d maxrecv=%d msgs=%d elems=%d\n",
			rd.Index, rd.Cost, rd.BottleneckEdge, rd.MaxReceived, rd.Messages, rd.Elements)
	}
	fmt.Fprintf(&sb, "edges=%v\nsent=%v\nrecv=%v\n", r.EdgeTotals, r.SentTotals, r.RecvTotals)
	return sb.String()
}

// TestIntIndexedMatchesMapBaseline pins the tentpole equivalence: the
// int-indexed contraction (CC's and SpanningForest's run alone) must produce byte-identical cost reports and
// identical results (labels, components, checksum, forest, phase count,
// strategy) to the retired map-based path on every topology × graph family
// × variant combination. The renumbering is order-preserving and only the
// payload values change on the wire, so any divergence is a bug.
func TestIntIndexedMatchesMapBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fams := families(t, rng)
	variants := []struct {
		name           string
		aware, witness bool
	}{
		{name: "cc", aware: true},
		{name: "flat", aware: false},
		{name: "forest", aware: true, witness: true},
	}
	for tname, tree := range testTrees(t) {
		for fname, edges := range inputs(fams, tree.NumCompute()) {
			for _, vr := range variants {
				var got, want *Result
				var err1, err2 error
				switch {
				case vr.witness:
					got, err1 = forestContraction(tree, edges, 42)
				case vr.aware:
					got, err1 = ccContraction(tree, edges, 42)
				default:
					got, err1 = CCFlat(tree, edges, 42)
				}
				want, err2 = runMaps(tree, edges, 42, vr.aware, vr.witness, !vr.witness, nil)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s/%s/%s: run errors: %v, %v", tname, fname, vr.name, err1, err2)
				}
				if got.Checksum != want.Checksum {
					t.Errorf("%s/%s/%s: checksum %d != baseline %d", tname, fname, vr.name, got.Checksum, want.Checksum)
				}
				if got.Components != want.Components {
					t.Errorf("%s/%s/%s: components %d != baseline %d", tname, fname, vr.name, got.Components, want.Components)
				}
				if got.Phases != want.Phases || got.Strategy != want.Strategy {
					t.Errorf("%s/%s/%s: phases/strategy (%d,%q) != baseline (%d,%q)",
						tname, fname, vr.name, got.Phases, got.Strategy, want.Phases, want.Strategy)
				}
				if !reflect.DeepEqual(got.Labels(), want.Labels()) {
					t.Errorf("%s/%s/%s: merged labelings differ from baseline", tname, fname, vr.name)
				}
				if !reflect.DeepEqual(got.Forest, want.Forest) {
					t.Errorf("%s/%s/%s: witness forests differ from baseline", tname, fname, vr.name)
				}
				gr, wr := serializeReport(got.Report), serializeReport(want.Report)
				if gr != wr {
					t.Errorf("%s/%s/%s: cost reports not byte-identical\n--- int-indexed\n%s--- baseline\n%s",
						tname, fname, vr.name, gr, wr)
				}
			}
		}
	}
}
