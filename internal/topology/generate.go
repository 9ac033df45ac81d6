package topology

import (
	"fmt"
	"math/rand"
)

// Star builds a star topology (Figure 1a): p compute nodes, each connected
// to a central router by its own link. bandwidths must have length p.
func Star(bandwidths []float64) (*Tree, error) {
	if len(bandwidths) == 0 {
		return nil, fmt.Errorf("topology: star needs at least one compute node")
	}
	b := NewBuilder()
	center := b.Router("w")
	for i, w := range bandwidths {
		v := b.Compute(fmt.Sprintf("v%d", i+1))
		b.Link(v, center, w)
	}
	return b.Build()
}

// UniformStar builds a star of p compute nodes with identical link
// bandwidth w.
func UniformStar(p int, w float64) (*Tree, error) {
	bw := make([]float64, max(p, 0)) // Star rejects p < 1
	for i := range bw {
		bw[i] = w
	}
	return Star(bw)
}

// TwoTier builds a two-level datacenter-style tree: a spine router, one rack
// router per entry of racks connected to the spine with uplink bandwidth
// uplinks[i], and racks[i] compute nodes per rack connected to their rack
// router with bandwidth leaf.
func TwoTier(racks []int, uplinks []float64, leaf float64) (*Tree, error) {
	if len(racks) != len(uplinks) {
		return nil, fmt.Errorf("topology: %d racks but %d uplinks", len(racks), len(uplinks))
	}
	b := NewBuilder()
	spine := b.Router("spine")
	node := 0
	for i, size := range racks {
		if size < 0 {
			return nil, fmt.Errorf("topology: rack %d has %d compute nodes, want >= 0", i+1, size)
		}
		r := b.Router(fmt.Sprintf("rack%d", i+1))
		b.Link(r, spine, uplinks[i])
		for j := 0; j < size; j++ {
			node++
			v := b.Compute(fmt.Sprintf("v%d", node))
			b.Link(v, r, leaf)
		}
	}
	return b.Build()
}

// FatTree builds a complete fanout-ary tree of routers with the given number
// of router levels; compute nodes hang off the lowest router level. Link
// bandwidth at router level i (0 = closest to the leaves) is leafBW *
// growth^i, modeling the "fat" links near the core (Leiserson fat-trees).
func FatTree(levels, fanout int, leafBW, growth float64) (*Tree, error) {
	if levels < 1 || fanout < 1 {
		return nil, fmt.Errorf("topology: fat tree needs levels >= 1, fanout >= 1")
	}
	b := NewBuilder()
	root := b.Router("core")
	frontier := []NodeID{root}
	bwAt := func(level int) float64 {
		w := leafBW
		for i := 0; i < level; i++ {
			w *= growth
		}
		return w
	}
	for level := levels - 1; level >= 1; level-- {
		var next []NodeID
		for _, p := range frontier {
			for j := 0; j < fanout; j++ {
				r := b.Router("")
				b.Link(r, p, bwAt(level))
				next = append(next, r)
			}
		}
		frontier = next
	}
	leafID := 0
	for _, p := range frontier {
		for j := 0; j < fanout; j++ {
			leafID++
			v := b.Compute(fmt.Sprintf("v%d", leafID))
			b.Link(v, p, bwAt(0))
		}
	}
	return b.Build()
}

// Caterpillar builds a path of routers, each with one compute leaf: a
// worst-case "deep" tree that stresses multi-hop routing. spine is the
// bandwidth of the i-th backbone link; leg is the leaf link bandwidth.
func Caterpillar(spine []float64, leg float64) (*Tree, error) {
	if len(spine) == 0 {
		return nil, fmt.Errorf("topology: caterpillar needs at least one spine link")
	}
	b := NewBuilder()
	prev := b.Router("w1")
	v := b.Compute("v1")
	b.Link(v, prev, leg)
	for i, w := range spine {
		r := b.Router(fmt.Sprintf("w%d", i+2))
		b.Link(r, prev, w)
		c := b.Compute(fmt.Sprintf("v%d", i+2))
		b.Link(c, r, leg)
		prev = r
	}
	return b.Build()
}

// Random builds a random tree with p compute leaves attached to a random
// router skeleton of r routers (r >= 1). Bandwidths are drawn uniformly from
// [minBW, maxBW]. The same seed always produces the same tree.
func Random(rng *rand.Rand, p, r int, minBW, maxBW float64) (*Tree, error) {
	if p < 1 || r < 1 {
		return nil, fmt.Errorf("topology: random tree needs p >= 1, r >= 1")
	}
	draw := func() float64 { return minBW + rng.Float64()*(maxBW-minBW) }
	b := NewBuilder()
	routers := make([]NodeID, r)
	for i := range routers {
		routers[i] = b.Router("")
		if i > 0 {
			b.Link(routers[i], routers[rng.Intn(i)], draw())
		}
	}
	for i := 0; i < p; i++ {
		v := b.Compute(fmt.Sprintf("v%d", i+1))
		b.Link(v, routers[rng.Intn(r)], draw())
	}
	return b.Build()
}

// Figure1a reproduces the star of Figure 1a in the paper: six compute nodes
// around one router, unit bandwidth.
func Figure1a() *Tree { return must(UniformStar(6, 1)) }

// Figure1b reproduces the tree of Figure 1b in the paper: routers w1..w4
// with w1 as the hub, and compute nodes v1..v9 split across w2, w3, w4
// (v1..v3 on w2, v4..v6 on w3, v7..v9 on w4), unit bandwidth.
func Figure1b() *Tree {
	b := NewBuilder()
	w1 := b.Router("w1")
	w2 := b.Router("w2")
	w3 := b.Router("w3")
	w4 := b.Router("w4")
	b.Link(w2, w1, 1)
	b.Link(w3, w1, 1)
	b.Link(w4, w1, 1)
	hubs := []NodeID{w2, w2, w2, w3, w3, w3, w4, w4, w4}
	for i, h := range hubs {
		v := b.Compute(fmt.Sprintf("v%d", i+1))
		b.Link(v, h, 1)
	}
	return b.MustBuild()
}
