// Package topotest draws the tree shapes that property tests of per-edge
// quantities sweep: every generator of the topology package, Gomory–Hu
// trees of the general-network fabrics, and the degenerate shapes (one
// compute node, a line, trees whose compute nodes are inner nodes, so that
// a data holder is an ancestor of other holders).
package topotest

import (
	"math/rand"

	"topompc/internal/topology"
)

// NumShapes is the number of shapes Draw cycles through.
const NumShapes = 11

// Draw builds shape i mod NumShapes with small parameters drawn from rng
// and reports its name. Compute-node counts stay below about 30.
func Draw(rng *rand.Rand, i int) (string, *topology.Tree, error) {
	bw := func() float64 { return float64(int(1)<<rng.Intn(5)) / 2 }
	fromGraph := func(g *topology.Graph, err error) (*topology.Tree, error) {
		if err != nil {
			return nil, err
		}
		return topology.FromGraph(g)
	}
	switch i % NumShapes {
	case 0:
		racks := make([]int, 2+rng.Intn(3))
		uplinks := make([]float64, len(racks))
		for r := range racks {
			racks[r], uplinks[r] = 1+rng.Intn(4), bw()
		}
		t, err := topology.TwoTier(racks, uplinks, 8)
		return "twotier", t, err
	case 1:
		t, err := topology.FatTree(2+rng.Intn(2), 2+rng.Intn(2), 4, 0.5)
		return "fattree", t, err
	case 2:
		spine := make([]float64, 1+rng.Intn(10))
		for s := range spine {
			spine[s] = bw()
		}
		t, err := topology.Caterpillar(spine, bw())
		return "caterpillar", t, err
	case 3:
		t, err := fromGraph(topology.RingOfRacks(3+rng.Intn(2), 1+rng.Intn(3), bw(), bw()))
		return "ring-of-racks", t, err
	case 4:
		t, err := fromGraph(topology.Mesh(2+rng.Intn(2), 2+rng.Intn(3), bw()))
		return "mesh", t, err
	case 5:
		t, err := fromGraph(topology.Clos(2, 2+rng.Intn(3), 1+rng.Intn(3), bw(), bw()))
		return "clos", t, err
	case 6:
		t, err := fromGraph(topology.RandomizedFanout(rng, 3+rng.Intn(8), 1+rng.Intn(2), 0.5, 4))
		return "fanout", t, err
	case 7:
		t, err := topology.Random(rng, 1+rng.Intn(12), 1+rng.Intn(6), 1, 8)
		return "random", t, err
	case 8:
		t, err := topology.UniformStar(1, 1)
		return "one-node", t, err
	case 9:
		// Every compute node but the last is an ancestor or a descendant
		// of every other.
		b := topology.NewBuilder()
		prev := b.Compute("")
		for n := 1 + rng.Intn(8); n > 0; n-- {
			v := b.Compute("")
			b.Link(v, prev, bw())
			prev = v
		}
		t, err := b.Build()
		return "line", t, err
	default:
		// A general tree of compute nodes only.
		b := topology.NewBuilder()
		ids := []topology.NodeID{b.Compute("")}
		for n := 1 + rng.Intn(20); n > 0; n-- {
			v := b.Compute("")
			b.Link(v, ids[rng.Intn(len(ids))], bw())
			ids = append(ids, v)
		}
		t, err := b.Build()
		return "inner-compute", t, err
	}
}
