package place

import (
	"math/rand"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// bruteGather runs the gather round at every compute node — every other
// compute node sends its loads[v] words to g in one message — and returns
// the cheapest, with its cost and bottleneck; among equals the one that
// moves the fewest words over all links (the sum of its EdgeTotals), then
// the lowest compute index.
func bruteGather(t *topology.Tree, loads topology.Loads) GatherPlan {
	var most int64
	for _, v := range t.ComputeNodes() {
		most = max(most, loads[v])
	}
	payload := make([]uint64, most)
	var best GatherPlan
	var least int64
	for i, g := range t.ComputeNodes() {
		e := netsim.NewEngine(t, netsim.WithWorkers(1))
		x := e.Exchange()
		for _, v := range t.ComputeNodes() {
			if v != g && loads[v] > 0 {
				x.Out(v).Send(g, netsim.TagData, payload[:loads[v]])
			}
		}
		rd := x.Execute()
		var moved int64
		for _, n := range e.Report().EdgeTotals {
			moved += n
		}
		if i == 0 || rd.Cost < best.Cost || rd.Cost == best.Cost && moved < least {
			best, least = GatherPlan{Node: i, Cost: rd.Cost, Bottleneck: rd.BottleneckEdge}, moved
		}
	}
	return best
}

// TestGatherMatchesPricedRounds: on three draws of every topotest shape,
// under uniform, zipf, oneheavy (80% on the first node), single (all on the
// last node) and all-zero loads, Gather picks the node, cost and bottleneck
// that running the gather round at every compute node picks.
func TestGatherMatchesPricedRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	spreads := []struct {
		name  string
		split func(keys []uint64, p int) (dataset.Placement, error)
	}{
		{"uniform", dataset.SplitUniform},
		{"zipf", func(k []uint64, p int) (dataset.Placement, error) { return dataset.SplitZipf(rng, k, p, 1.2) }},
		{"oneheavy", func(k []uint64, p int) (dataset.Placement, error) { return dataset.SplitOneHeavy(k, p, 0, 0.8) }},
		{"single", func(k []uint64, p int) (dataset.Placement, error) { return dataset.SplitSingle(k, p, p-1) }},
		{"all-zero", func(_ []uint64, p int) (dataset.Placement, error) { return make(dataset.Placement, p), nil }},
	}
	for i := 0; i < 3*topotest.NumShapes; i++ {
		name, tr, err := topotest.Draw(rng, i)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, sp := range spreads {
			frags, err := sp.split(dataset.Distinct(rng, 1+rng.Intn(900)), tr.NumCompute())
			if err != nil {
				t.Fatal(err)
			}
			loads := make(topology.Loads, tr.NumNodes())
			for k, v := range tr.ComputeNodes() {
				loads[v] = int64(len(frags[k]))
			}
			if got, want := Gather(tr, loads), bruteGather(tr, loads); got != want {
				t.Errorf("draw %d %s/%s: Gather gives %+v, pricing the round at every node %+v", i, name, sp.name, got, want)
			}
		}
	}
}
