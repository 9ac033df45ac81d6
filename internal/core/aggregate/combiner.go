package aggregate

import (
	"fmt"

	"topompc/internal/core/place"
	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
)

// tagUp carries partial aggregates from a block member to its block
// combiner (the up-sweep rounds of the combiner trees). collect reads the
// final round's inbox — the engine swaps inboxes every round, so the
// up-phase deliveries are gone by collection time. The scatter to the group
// homes must therefore stay the last round of every strategy.
const tagUp netsim.Tag = 30

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
	weights := place.Capacities(t)
	hier := place.HierarchyFor(t)
	var steps []place.UpStep
	if hier != nil {
		steps = hier.UpSweep(weights)
	}
	return combinerTree(t, data, seed, hier, steps, fmt.Sprintf("combiner-tree×%d", len(steps)), opts)
}

// combinerTree runs the up-sweep schedule (one merge round per step, in
// order) and then hashes what every node still carries to the global group
// homes. strategy names a run with at least one step; an empty schedule is
// a single round of capacity-weighted hashing. hier is only traced.
func combinerTree(t *topology.Tree, data Placement, seed uint64, hier *place.Hierarchy, steps []place.UpStep, strategy string, opts []netsim.Option) (*Result, error) {
	in, err := newInstance(t, data, opts)
	if err != nil {
		return nil, err
	}
	weights := place.Capacities(t) // strictly positive by contract
	global, err := chooserFor(hashing.Mix64(seed+0xa66), weights)
	if err != nil {
		return nil, err
	}

	e := in.e
	// Flight recorder: the hierarchy's combining decisions plus one span
	// per up-sweep level recording shipped vs merged volume; all behind nil
	// checks when the engine has no recorder.
	tc := e.Tracer()
	mx := e.Metrics()
	var aggTid int64
	if tc != nil {
		aggTid = tc.NewTid("aggregate up-sweep")
		hier.TraceCombine(tc, weights)
	}
	mLevels := mx.Counter("aggregate.upsweep_rounds")
	mShipped := mx.Counter("aggregate.shipped_elements")
	mMerged := mx.Counter("aggregate.merged_groups")

	// Up-sweep: one round per engaged level, deepest first. state[i] is the
	// partial node i still carries; senders forward it whole, combiners
	// merge what arrives with their own.
	state := in.local
	if len(steps) == 0 {
		strategy = "capacity-hash"
	}
	for _, st := range steps {
		var sp obs.Span
		if tc != nil {
			sp = obs.Begin(tc, aggTid, fmt.Sprintf("combine level %d", st.Level), "aggregate.level")
		}
		x := e.Exchange()
		x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
			i := t.ComputeIndex(v)
			if st.Target[i] != i && len(state[i]) > 0 {
				out.Send(in.nodes[st.Target[i]], tagUp, state[i])
			}
		})
		rst := x.Execute()
		next := make([]partial, len(in.nodes)) // forwarders carry nothing on
		// arrived counts the group partials merged at combiners this level.
		arrived := e.Pool().Sum("aggregate local", len(in.nodes), func(shard, lo, hi int) int64 {
			var n int64
			for i := lo; i < hi; i++ {
				if st.Target[i] != i {
					continue
				}
				next[i] = state[i]
				ib := e.Inbox(in.nodes[i])
				if up := ib.KeyCount(tagUp); up > 0 {
					n += int64(up / 2)
					next[i] = in.scratch[shard].merge(ib, tagUp, state[i])
				}
			}
			return n
		})
		state = next
		mLevels.Inc()
		mShipped.Add(rst.Elements)
		mMerged.Add(arrived)
		if tc != nil {
			sp.End(map[string]any{
				"level": st.Level, "shipped_elements": rst.Elements,
				"merged_groups": arrived, "round_cost": rst.Cost,
			})
		}
	}

	// Final round: hash the (block-merged) partials to their global homes.
	scatterPartials(in, global, state)
	return collect(in, strategy), nil
}

// CombinerTreeSingle is the single-level combiner tree of the flat
// CombinerBlocks decomposition — the hierarchy truncated to its deepest
// level. The compute nodes are partitioned into the blocks of
// place.CombinerBlocks (connected components after removing weak edges);
// round 1 merges the members' partials at the block combiner over strong
// intra-block links, round 2 hashes the merged block partials to global
// group homes chosen with capacity weights, so each group crosses a weak
// cut at most once per block — and rarely even that, since weak nodes
// host few homes.
//
// Combining only engages for the minority-capacity blocks
// (place.BlockPlan.MinorityBlocks): a multi-member block holding most of
// the capacity keeps most group homes inside itself, so pre-merging its
// partials saves nothing on any weak cut and just pays an extra round —
// on a caterpillar, the strong middle block hashes directly while a
// weak rack on a two-tier tree still merges before its thin uplink. When
// no block qualifies the protocol degrades to a single round of
// capacity-weighted hashing. It is kept as the ablation baseline the
// multi-level CombinerTree is measured against (X7, golden harness).
func CombinerTreeSingle(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	weights := place.Capacities(t)
	// One up-step over the flat plan, restricted to the blocks where the
	// merge round pays; everyone else keeps its partials for the scatter.
	var steps []place.UpStep
	if plan := place.CombinerBlocks(t, weights); plan != nil {
		combines := plan.MinorityBlocks(weights)
		target := make([]int, len(plan.BlockOf))
		engaged := false
		for i, b := range plan.BlockOf {
			target[i] = i
			if combines[b] && plan.Combiner[b] != i {
				target[i] = plan.Combiner[b]
				engaged = true
			}
		}
		if engaged {
			steps = []place.UpStep{{Target: target}}
		}
	}
	return combinerTree(t, data, seed, nil, steps, "combiner-tree", opts)
}

// HashFlat is the topology-oblivious counterpart of the combiner trees: a
// single round of uniform hashing with no block combining, as on a flat
// network — the same chooser seed, so on symmetric topologies (where
// capacities are uniform and no combining plan exists) the protocols
// coincide and the combiner-tree levers can be measured in isolation.
func HashFlat(t *topology.Tree, data Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, data, opts)
	if err != nil {
		return nil, err
	}
	chooser, err := chooserFor(hashing.Mix64(seed+0xa66), place.Uniform(len(in.nodes)))
	if err != nil {
		return nil, err
	}
	scatterPartials(in, chooser, in.local)
	return collect(in, "flat-hash"), nil
}
