package place

import (
	"math/rand"
	"testing"

	"topompc/internal/hashing"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
	"topompc/internal/topology/topotest"
)

// TestDestinationGroupsMatchMapOracle compares the first-seen numbering of
// destination vectors with a map keyed by the vector, on block structures
// whose size product fits the dense table and on ones that force the
// renumbering by sorting: many blocks and few rows, or many wide blocks
// and many keys, where even a renumbered space outgrows the table again.
// Keys repeat as a relation's join keys do, or are distinct 64-bit values
// as a set's fragment is.
func TestDestinationGroupsMatchMapOracle(t *testing.T) {
	for iter := 0; iter < 80; iter++ {
		rng := rand.New(rand.NewSource(int64(900 + iter)))
		numBlocks, maxSize, rows, keySpace := 1+rng.Intn(4), 5, rng.Intn(200), 40
		switch iter % 4 {
		case 1: // size product far beyond 4·rows+1024
			numBlocks = 12 + rng.Intn(30)
		case 2: // rows·size beyond it too
			numBlocks, maxSize, rows, keySpace = 6+rng.Intn(6), 40, 1000+rng.Intn(1000), 5000
		case 3: // a set: no key twice, so only the vectors repeat
			numBlocks, rows, keySpace = 1+rng.Intn(8), rng.Intn(3000), 0
		}
		r := &BlockRouter{
			Blocks:   make([][]topology.NodeID, numBlocks),
			choosers: make([]*hashing.WeightedChooser, numBlocks),
		}
		next := topology.NodeID(0)
		for b := range r.Blocks {
			w := make([]float64, 1+rng.Intn(maxSize))
			for j := range w {
				w[j] = 1 + rng.Float64()
				r.Blocks[b] = append(r.Blocks[b], next)
				next++
			}
			var err error
			if r.choosers[b], err = hashing.NewWeightedChooser(uint64(iter*100+b), w); err != nil {
				t.Fatal(err)
			}
		}
		keys := make([]uint64, rows)
		for j := range keys {
			if keySpace > 0 {
				keys[j] = uint64(rng.Intn(keySpace))
			} else {
				keys[j] = rng.Uint64()<<12 | uint64(j)
			}
		}
		group, n := r.DestinationGroups(keys)
		ordinal := make(map[string]int32)
		dsts := make([]topology.NodeID, numBlocks)
		for j, k := range keys {
			var sig []byte
			for b := range r.Blocks {
				sig = append(sig, byte(r.Chooser(b).Choose(k)))
			}
			if _, ok := ordinal[string(sig)]; !ok {
				ordinal[string(sig)] = int32(len(ordinal))
			}
			if group[j] != ordinal[string(sig)] {
				t.Fatalf("iter %d (%d blocks): key %d in group %d, map oracle says %d", iter, numBlocks, j, group[j], ordinal[string(sig)])
			}
			r.Destinations(dsts, k)
			for b, d := range dsts {
				if d != r.Blocks[b][sig[b]] {
					t.Fatalf("iter %d: key %d goes to %v in block %d, its vector says member %d", iter, j, d, b, sig[b])
				}
			}
		}
		if n != len(ordinal) {
			t.Fatalf("iter %d: %d groups, map oracle has %d", iter, n, len(ordinal))
		}
	}
}

// TestFlatRouterKeepsProtocolSeeds pins the seed contract of the one-block
// router: its hash is the weighted chooser seeded Mix64(seed + salt) over
// FallbackUniform(weights), for every salt a flat protocol hashes under
// (intersect's star and baseline, join's capacity and uniform hashes, the
// star multijoin, connectivity's homes and aggregation's three home
// hashes).
func TestFlatRouterKeepsProtocolSeeds(t *testing.T) {
	tr, err := topology.TwoTier([]int{3, 1, 4}, []float64{1, 2, 0.5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.NumCompute()
	skewed := make([]float64, p)
	for i := range skewed {
		skewed[i] = float64(i * i % 7) // zeros among them
	}
	const seed = 42
	for _, salt := range []uint64{0x5151, 0xbead, 0x10ad, 0xCA9A, 0x57A2, 0xCC0C, 0xa66, 0xa99, 0xfeed} {
		for name, w := range map[string][]float64{"uniform": Uniform(p), "skewed": skewed} {
			r, err := NewFlatRouter(tr, w, seed, salt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hashing.NewWeightedChooser(hashing.Mix64(seed+salt), FallbackUniform(w))
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 10000; k++ {
				key := k * 0x9E3779B97F4A7C15
				if got, exp := r.Chooser(0).Choose(key), want.Choose(key); got != exp {
					t.Fatalf("salt %#x, %s weights: key %d goes to member %d, want %d", salt, name, key, got, exp)
				}
			}
		}
	}
}

// TestPricedRoundEqualsRound prices Algorithm 2's round through
// RunCheapest, from bucket counts alone, and then runs it on the same
// engine: on every topotest shape, through a router of several blocks and a
// flat one, with and without replication, at widths 1 and 2, with empty
// fragments among the senders and with every fragment empty, the price must
// be the executed round's cost to the bit, on the same bottleneck edge.
func TestPricedRoundEqualsRound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for shape := 0; shape < topotest.NumShapes; shape++ {
		name, tr, err := topotest.Draw(rng, shape)
		if err != nil {
			t.Fatal(err)
		}
		nodes := tr.ComputeNodes()
		p := len(nodes)
		weights := make([]float64, p)
		for i := range weights {
			weights[i] = float64(rng.Intn(4)) // zeros among them
		}
		var blocks [][]topology.NodeID
		for lo := 0; lo < p; {
			hi := min(p, lo+1+rng.Intn(3))
			blocks = append(blocks, nodes[lo:hi])
			lo = hi
		}
		blocked, err := NewBlockRouter(tr, blocks, weights, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := NewFlatRouter(tr, Uniform(p), 5, 0x10ad)
		if err != nil {
			t.Fatal(err)
		}
		for _, empty := range []bool{false, true} {
			for _, r := range []*BlockRouter{blocked, flat} {
				for _, width := range []int{1, 2} {
					for _, replicate := range []bool{false, true} {
						rs, ss := make([][]uint64, p), make([][]uint64, p)
						for i := range rs {
							if empty {
								continue
							}
							rs[i] = make([]uint64, width*rng.Intn(3)*rng.Intn(20)) // often empty
							ss[i] = make([]uint64, width*rng.Intn(40))
							for _, side := range [][]uint64{rs[i], ss[i]} {
								for j := range side {
									side[j] = rng.Uint64() % 60
								}
							}
						}
						tc := obs.NewTrace()
						e := netsim.NewEngine(tr, netsim.WithTracer(tc))
						price, edge, rd := priceThenRun(t, e, tc, func(x *netsim.Exchange) {
							r.Round(x, width, replicate, func(i int) ([]uint64, []uint64) { return rs[i], ss[i] })
						})
						if price != rd.Cost || edge != rd.BottleneckEdge {
							t.Errorf("%s/%d blocks/width%d/replicate=%v/empty=%v: priced %v on edge %d, executed round costs %v on edge %d",
								name, len(r.Blocks), width, replicate, empty, price, edge, rd.Cost, rd.BottleneckEdge)
						}
					}
				}
			}
		}
	}
}
