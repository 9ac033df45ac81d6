package aggregate

import (
	"fmt"

	"topompc/internal/core/place"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
)

// CombinerTree is the topology-aware aggregation on the recursive
// weak-cut hierarchy (place.HierarchyFor): partial aggregates merge once
// per block per hierarchy level before crossing that level's cut. The
// up-sweep runs one round per hierarchy level with a paying block
// (place.Hierarchy.UpSweep), deepest level first: members of each paying
// block push their accumulated partials to the block combiner over the
// block's strong internal links, so by the time a payload crosses a
// level's weak cut it carries one partial per group per block. The final
// round hashes whatever each node still holds to global group homes
// chosen with capacity weights (place.Capacities).
//
// On a single-band topology (two-tier, caterpillar with one weak class)
// the hierarchy has depth 1 and the protocol coincides with
// CombinerTreeSingle; on deep bandwidth gradients (tapered fat-trees,
// graded caterpillars) the extra levels dedupe the traffic crossing every
// tier, not just the weakest. When no block pays anywhere the protocol
// degrades to a single round of capacity-weighted hashing.
func CombinerTree(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return run(t, data, seed, opts, func(in *instance) ([]candidate, error) {
		return []candidate{combinerTree(in, place.HierarchyFor(t), true)}, nil
	})
}

// CombinerTreeSingle is the single-level combiner tree: CombinerTree over
// the hierarchy truncated to its deepest level (place.Hierarchy.Deepest),
// whose blocks are the connected components left after removing the weak
// edges. Round 1 merges the members' partials at the block combiner over
// strong intra-block links, round 2 hashes the merged block partials to
// global group homes chosen with capacity weights, so each group crosses a
// weak cut at most once per block — and rarely even that, since weak nodes
// host few homes.
//
// Combining only engages for the minority-capacity blocks (with one level
// place.Hierarchy.CombinePays is the plain minority test): a multi-member
// block holding most of the capacity keeps most group homes inside itself,
// so pre-merging its partials saves nothing on any weak cut and just pays
// an extra round — on a caterpillar, the strong middle block hashes
// directly while a weak rack on a two-tier tree still merges before its
// thin uplink. When no block qualifies the protocol degrades to a single
// round of capacity-weighted hashing. It is the ablation baseline the
// multi-level CombinerTree is measured against (X7, golden harness), and a
// candidate of Planned where the hierarchy is deeper than one level.
func CombinerTreeSingle(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return run(t, data, seed, opts, func(in *instance) ([]candidate, error) {
		return []candidate{combinerTree(in, place.HierarchyFor(t).Deepest(), false)}, nil
	})
}

// combinerTree is the candidate of a combiner tree over hier (nil: no weak
// cut): one forwarding hop per up-sweep step, in order, then homes
// weighted by capacity. The multi-level tree is named by its step count
// and traces the hierarchy's combining decisions; the single-level
// ablation does neither.
func combinerTree(in *instance, hier *place.Hierarchy, multi bool) candidate {
	weights := place.Capacities(in.t) // strictly positive by contract
	var ups []place.UpStep
	if hier != nil {
		ups = hier.UpSweep(weights)
	}
	c := candidate{strategy: "capacity-hash", homes: fixed(weights), salt: 0xa66, trace: &upTrace{weights: weights}}
	if len(ups) > 0 {
		c.strategy = "combiner-tree"
		if multi {
			c.strategy = fmt.Sprintf("combiner-tree×%d", len(ups))
			c.trace.hier = hier
		}
	}
	for _, up := range ups {
		c.hops = append(c.hops, hop{up: up})
	}
	return c
}

// upTrace is the flight recorder of a combiner tree's hops that run — a
// priced candidate records nothing. Each hop is one "combine level L" span
// from its planned round to its merge, counted by aggregate.upsweep_rounds,
// and the elements its forwarders ship add to aggregate.shipped_elements;
// the round itself (its elements and cost) is the netsim.round event. The
// first hop also records the multi-level hierarchy's combining decisions
// (place.combine). A nil upTrace records nothing.
type upTrace struct {
	hier    *place.Hierarchy // nil on the single-level tree
	weights []float64
	tid     int64
	span    obs.Span
}

// begin opens hop h's record; held is what the nodes hold before it.
func (u *upTrace) begin(in *instance, h *hop, held []partial) {
	if u == nil {
		return
	}
	tc, mx := in.e.Tracer(), in.e.Metrics()
	var shipped int64
	for i, p := range held {
		if !h.keeps(i) {
			shipped += int64(len(p))
		}
	}
	mx.Counter("aggregate.upsweep_rounds").Inc()
	mx.Counter("aggregate.shipped_elements").Add(shipped)
	if tc == nil {
		return
	}
	if u.tid == 0 {
		u.hier.TraceCombine(tc, u.weights)
		u.tid = tc.NewTid("aggregate up-sweep")
	}
	u.span = obs.Begin(tc, u.tid, fmt.Sprintf("combine level %d", h.up.Level), "aggregate.level")
}

// end closes hop h's record once the hop has merged.
func (u *upTrace) end(h *hop) {
	if u != nil {
		u.span.End(map[string]any{"level": h.up.Level})
	}
}
