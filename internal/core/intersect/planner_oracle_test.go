package intersect

import (
	"math/rand"
	"slices"
	"testing"

	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// The planners below are the map-based ones the protocols had before their
// fragments were laid out with par.Layout: one map[NodeID][]uint64 per side,
// and for Tree a map keyed by the byte-encoded destination vector, walked a
// second time to emit the groups in order of first appearance. They are the
// oracle for what the counting-pass planners must deliver, message by
// message.

func mapChooser(t *testing.T, seed uint64, weights []float64) *hashing.WeightedChooser {
	t.Helper()
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		for i := range weights {
			weights[i] = 1
		}
	}
	c, err := hashing.NewWeightedChooser(seed, weights)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sendByMap hashes frag over members and sends each member its keys, in
// member order.
func sendByMap(out *netsim.Outbox, frag []uint64, members []topology.NodeID, c *hashing.WeightedChooser, tag netsim.Tag) {
	byDst := make(map[topology.NodeID][]uint64)
	for _, k := range frag {
		d := members[c.Choose(k)]
		byDst[d] = append(byDst[d], k)
	}
	for _, member := range members {
		if keys := byDst[member]; len(keys) > 0 {
			out.Send(member, tag, keys)
		}
	}
}

func mapPlannedTree(t *testing.T, in *instance, seed uint64) *netsim.Engine {
	blocks, err := place.BalancedPartition(in.t, in.loads, in.size0)
	if err != nil {
		t.Fatal(err)
	}
	choosers := make([]*hashing.WeightedChooser, len(blocks))
	blockOf := make(map[topology.NodeID]int)
	for i, b := range blocks {
		w := make([]float64, len(b))
		for j, v := range b {
			w[j] = float64(in.loads[v])
			blockOf[v] = i
		}
		choosers[i] = mapChooser(t, hashing.Mix64(seed+uint64(i)+1), w)
	}
	e := netsim.NewEngine(in.t)
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := in.t.ComputeIndex(v)
		type group struct {
			dsts []topology.NodeID
			keys []uint64
		}
		groups := make(map[string]*group)
		signature := func(k uint64) (sig []byte, dsts []topology.NodeID) {
			for b, c := range choosers {
				d := blocks[b][c.Choose(k)]
				dsts = append(dsts, d)
				sig = append(sig, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
			}
			return sig, dsts
		}
		for _, k := range in.rel0[i] {
			sig, dsts := signature(k)
			g, ok := groups[string(sig)]
			if !ok {
				g = &group{dsts: dsts}
				groups[string(sig)] = g
			}
			g.keys = append(g.keys, k)
		}
		emitted := make(map[string]bool)
		for _, k := range in.rel0[i] {
			sig, _ := signature(k)
			if emitted[string(sig)] {
				continue
			}
			emitted[string(sig)] = true
			g := groups[string(sig)]
			out.Multicast(g.dsts, netsim.TagR, g.keys)
		}
		sendByMap(out, in.rel1[i], blocks[blockOf[v]], choosers[blockOf[v]], netsim.TagS)
	})
	x.Execute()
	return e
}

func mapPlannedStar(t *testing.T, in *instance, seed uint64) *netsim.Engine {
	n := in.loads.Total()
	var beta []topology.NodeID
	isBeta := make(map[topology.NodeID]bool)
	weights := make([]float64, len(in.nodes))
	for i, v := range in.nodes {
		if min(in.loads[v], n-in.loads[v]) < in.size0 {
			weights[i] = float64(in.loads[v])
		} else {
			beta = append(beta, v)
			isBeta[v] = true
			weights[i] = float64(len(in.rel0[i]))
		}
	}
	chooser := mapChooser(t, hashing.Mix64(seed+0x5151), weights)
	e := netsim.NewEngine(in.t)
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := in.t.ComputeIndex(v)
		byDst := make(map[topology.NodeID][]uint64)
		for _, k := range in.rel0[i] {
			d := in.nodes[chooser.Choose(k)]
			byDst[d] = append(byDst[d], k)
		}
		for _, target := range in.nodes {
			keys := byDst[target]
			if len(keys) == 0 {
				continue
			}
			dsts := slices.Clone(beta)
			if !isBeta[target] {
				dsts = append(dsts, target)
			}
			out.Multicast(dsts, netsim.TagR, keys)
		}
		if !isBeta[v] {
			sendByMap(out, in.rel1[i], in.nodes, chooser, netsim.TagS)
		}
	})
	x.Execute()
	return e
}

func mapPlannedUniform(t *testing.T, in *instance, seed uint64) *netsim.Engine {
	chooser := mapChooser(t, hashing.Mix64(seed+0xbead), make([]float64, len(in.nodes)))
	e := netsim.NewEngine(in.t)
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := in.t.ComputeIndex(v)
		sendByMap(out, in.rel0[i], in.nodes, chooser, netsim.TagR)
		sendByMap(out, in.rel1[i], in.nodes, chooser, netsim.TagS)
	})
	x.Execute()
	return e
}

// TestPlannersDeliverWhatTheMapPlannersDid runs Tree, UniformHash and Star
// with an engine option that keeps hold of the protocol's engine, and
// compares every home's inbox — the (from, tag, keys) sequence — with the
// map-based planner's.
func TestPlannersDeliverWhatTheMapPlannersDid(t *testing.T) {
	type protocol struct {
		name   string
		run    func(*topology.Tree, dataset.Placement, dataset.Placement, uint64, ...netsim.Option) (*Result, error)
		oracle func(*testing.T, *instance, uint64) *netsim.Engine
	}
	compare := func(t *testing.T, p protocol, tr *topology.Tree, r, s dataset.Placement, seed uint64) *Result {
		t.Helper()
		var e *netsim.Engine
		res, err := p.run(tr, r, s, seed, func(used *netsim.Engine) { e = used })
		if err != nil {
			t.Fatal(err)
		}
		in, err := newInstance(tr, r, s)
		if err != nil {
			t.Fatal(err)
		}
		want := p.oracle(t, in, seed)
		for _, v := range tr.ComputeNodes() {
			got, want := e.Inbox(v).Messages(), want.Inbox(v).Messages()
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: home %v received %d messages, the map planner delivers %d", p.name, seed, v, len(got), len(want))
			}
			for m := range want {
				if got[m].From != want[m].From || got[m].Tag != want[m].Tag || !slices.Equal(got[m].Keys, want[m].Keys) {
					t.Fatalf("%s seed %d: home %v message %d is from %v tag %d with %d keys, the map planner delivers from %v tag %d with %d keys (or other keys)",
						p.name, seed, v, m, got[m].From, got[m].Tag, len(got[m].Keys), want[m].From, want[m].Tag, len(want[m].Keys))
				}
			}
		}
		return res
	}

	rng := rand.New(rand.NewSource(19))
	tree := protocol{"Tree", Tree, mapPlannedTree}
	uniform := protocol{"UniformHash", UniformHash, mapPlannedUniform}
	multiBlock := false
	for _, shape := range []int{0, 6, 10} { // twotier, fanout, inner-compute
		for iter := 0; iter < 4; iter++ {
			name, tr, err := topotest.Draw(rng, shape)
			if err != nil {
				t.Fatal(err)
			}
			// A small R against a large S makes β-edges, so Tree routes over
			// several blocks; the swapped sizes exercise the orientation.
			sizeR, sizeS := 40+rng.Intn(200), 2000+rng.Intn(2000)
			if iter%2 == 1 {
				sizeR, sizeS = sizeS, sizeR
			}
			r, s := makeInstance(t, rng, tr, sizeR, sizeS, 30, uniformPlace)
			seed := uint64(100*shape + iter)
			t.Run(name, func(t *testing.T) {
				if res := compare(t, tree, tr, r, s, seed); len(res.Blocks) > 1 {
					multiBlock = true
				}
				compare(t, uniform, tr, r, s, seed)
			})
		}
	}
	if !multiBlock {
		t.Error("no drawn instance had more than one block: the destination-vector grouping went unexercised")
	}

	star := protocol{"Star", Star, mapPlannedStar}
	for iter, counts := range [][2][]int{
		{{20, 0, 0, 0}, {0, 990, 990, 20}},          // two β-nodes
		{{300, 300, 300, 100}, {10, 1500, 40, 450}}, // one
		{{250, 250, 250, 250}, {250, 250, 250, 250}},
	} {
		tr, err := topology.Star([]float64{1, 5, 2, 8})
		if err != nil {
			t.Fatal(err)
		}
		var sizes [2]int
		for side, perNode := range counts {
			for _, c := range perNode {
				sizes[side] += c
			}
		}
		rk, sk, err := dataset.SetPair(rng, sizes[0], sizes[1], 15)
		if err != nil {
			t.Fatal(err)
		}
		r, err := dataset.SplitCounts(rk, counts[0])
		if err != nil {
			t.Fatal(err)
		}
		s, err := dataset.SplitCounts(sk, counts[1])
		if err != nil {
			t.Fatal(err)
		}
		compare(t, star, tr, r, s, uint64(iter))
	}
}
