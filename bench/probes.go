package main

import (
	"math/rand"
	"runtime"
	"time"

	"topompc/internal/core/place"
	"topompc/internal/netsim"
	"topompc/internal/par"
	"topompc/internal/topology"
)

// The probes are micro-runs that call one layer's public functions on the
// workload's own tree, shaped like the workload's traffic. Their inputs
// come from a fixed stream: they measure the layer, not the seed.
const probeSeed = 12345

// probeBatch is a round of msgs transfers between random compute nodes,
// one in sixteen a 3-destination multicast, grouped by sender NodeID.
type probeBatch struct {
	bySender [][]transfer
	msgs     int
}

func newProbeBatch(t *topology.Tree, msgs int) probeBatch {
	rng := rand.New(rand.NewSource(probeSeed))
	vs := t.ComputeNodes()
	b := probeBatch{bySender: make([][]transfer, t.NumNodes()), msgs: msgs}
	pick := func() topology.NodeID { return vs[rng.Intn(len(vs))] }
	for i := 0; i < msgs; i++ {
		tf := transfer{from: pick()}
		if i%16 == 15 {
			tf.dsts = []topology.NodeID{pick(), pick(), pick()}
		} else {
			tf.to = pick()
		}
		b.bySender[tf.from] = append(b.bySender[tf.from], tf)
	}
	return b
}

// probeRounds picks how many probe rounds to time: enough messages for a
// stable mean, capped so that huge payloads do not run for seconds.
func probeRounds(msgs, elemsPerMsg int) int {
	byMsgs := 2_000_000 / max(1, msgs)
	byElems := 200_000_000 / max(1, msgs*elemsPerMsg)
	return max(20, min(2000, byMsgs, byElems))
}

// probeTopology times Tree.LCA on 10⁶ random node pairs and the
// PathAccumulator on a round of the workload's message count.
func probeTopology(t *topology.Tree, msgs int) (lcaNS, pathaccNS float64) {
	rng := rand.New(rand.NewSource(probeSeed))
	const pairs = 1_000_000
	us, vs := make([]topology.NodeID, pairs), make([]topology.NodeID, pairs)
	for i := range us {
		us[i], vs[i] = topology.NodeID(rng.Intn(t.NumNodes())), topology.NodeID(rng.Intn(t.NumNodes()))
	}
	var sink topology.NodeID
	t0 := time.Now()
	for i := range us {
		sink += t.LCA(us[i], vs[i])
	}
	lcaNS = float64(time.Since(t0)) / pairs
	_ = sink

	b := newProbeBatch(t, msgs)
	acc := topology.NewPathAccumulator(t)
	traffic := make([]int64, t.NumEdges())
	terms := make([]topology.NodeID, 0, 4)
	rounds := probeRounds(msgs, 1)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, tfs := range b.bySender {
			for i := range tfs {
				if tf := &tfs[i]; tf.dsts == nil {
					acc.AddPath(tf.from, tf.to, 1)
				} else {
					terms = append(append(terms[:0], tf.from), tf.dsts...)
					acc.AddSteiner(terms, 1)
				}
			}
		}
		acc.FlushInto(traffic)
	}
	pathaccNS = float64(time.Since(t0)) / float64(rounds*msgs)
	return lcaNS, pathaccNS
}

// probePlace times place.Capacities and place.HierarchyFor on fresh copies
// of the tree (both memoize per tree, which is what the aware protocols
// rely on after their first op).
func probePlace(rebuild func() (*topology.Tree, error)) (capacitiesMS, hierarchyMS float64, err error) {
	var caps, hiers []float64
	for i := 0; i < 5; i++ {
		t, err := rebuild()
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		place.Capacities(t)
		t1 := time.Now()
		place.HierarchyFor(t) // capacities are cached by now: this is the hierarchy alone
		caps, hiers = append(caps, ms(t1.Sub(t0))), append(hiers, ms(time.Since(t1)))
	}
	return median(caps), median(hiers), nil
}

// probeNetsim runs steady-state exchange rounds shaped like the workload's
// mean round and times Plan and Execute separately from outside. Allocs
// are heap objects allocated per round, by the whole process.
func probeNetsim(t *topology.Tree, cfg execCfg, lean bool, msgs, elemsPerMsg int) (planNS, executeNS, allocsPerRound float64) {
	b := newProbeBatch(t, msgs)
	keys := make([]uint64, elemsPerMsg)
	e := netsim.NewEngine(t, cfg.netsimOpts(lean)...)
	plan := func(v topology.NodeID, out *netsim.Outbox) { queue(out, b.bySender[v], keys) }
	var planD, execD time.Duration
	round := func() {
		x := e.Exchange()
		t0 := time.Now()
		x.Plan(plan)
		t1 := time.Now()
		x.Execute()
		planD, execD = planD+t1.Sub(t0), execD+time.Since(t1)
	}
	round() // grow both exchange buffers before measuring
	round()
	planD, execD = 0, 0
	rounds := probeRounds(msgs, elemsPerMsg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		round()
	}
	runtime.ReadMemStats(&after)
	n := float64(rounds * msgs)
	return float64(planD) / n, float64(execD) / n, float64(after.Mallocs-before.Mallocs) / float64(rounds)
}

// probePar times the pool's parallel radix sort on the workload's key count
// and an empty fork over its compute-node count.
func probePar(workers, sortKeys, computeNodes int) (sortNSPerKey, forkNS float64) {
	pool := par.New(workers)
	rng := rand.New(rand.NewSource(probeSeed))
	src := make([]uint64, sortKeys)
	for i := range src {
		src[i] = rng.Uint64()
	}
	a, tmp := make([]uint64, sortKeys), make([]uint64, sortKeys)
	var sorts []float64
	for i := 0; i < 5; i++ {
		copy(a, src)
		t0 := time.Now()
		a, tmp = pool.SortUint64(a, tmp)
		sorts = append(sorts, float64(time.Since(t0))/float64(sortKeys))
	}
	const forks = 2000
	t0 := time.Now()
	for i := 0; i < forks; i++ {
		pool.Blocks("probe", computeNodes, func(_, _, _ int) {})
	}
	return median(sorts), float64(time.Since(t0)) / forks
}
