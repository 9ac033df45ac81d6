package sorting

import (
	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// WTS runs weighted TeraSort (§5.2), the four-round protocol of Theorem 7:
//
//	Round 1: light nodes (N_v < N/(2|VC|)) ship their data to the heavy
//	         nodes proportionally to the heavy sizes (Algorithm 6);
//	Round 2: heavy nodes Bernoulli-sample their data at rate
//	         ρ = 4|VC|/N · ln(|VC|·N) and send samples to v₁;
//	Round 3: v₁ sorts the samples and broadcasts k−1 splitters chosen so
//	         node v_j receives c_j = ⌈|VC|·M_j/N⌉ sample quantiles;
//	Round 4: heavy nodes redistribute by splitter interval and sort locally.
//
// Heavy nodes are labeled v₁ … v_k in left-to-right tree order, so the
// output respects the canonical valid ordering. As the paper's suggested
// improvement, a node already holding a majority of the data receives
// everything instead; and when no node qualifies as heavy (the input is far
// below the Theorem 7 regime N ≥ 4|VC|²ln(|VC|N)), the protocol degrades
// to gathering at the largest holder.
func WTS(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return planSort(t, data, seed, 7919, opts, weightedRanges(false))
}

// WTSUniformLight is WTS with round 1 splitting every light node's data
// evenly across the heavy nodes instead of in proportion to their sizes:
// the third wTS generalization of §5.2 switched off (ablation A3).
func WTSUniformLight(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return planSort(t, data, seed, 7919, opts, weightedRanges(true))
}

// weightedRanges lays out wTS: a gather at a majority holder, or at the
// heaviest holder when no node is heavy; otherwise the ship round from the
// light nodes, after which heavy node v_j holds its working set M_j — its
// own fragment, then its deliveries in sender order — samples it as holder
// j and receives key interval j.
func weightedRanges(uniformLight bool) layout {
	return func(in *instance) candidate {
		p := int64(len(in.nodes))
		threshold := float64(in.total) / float64(2*p)
		var heavy []topology.NodeID // v₁ … v_k
		for _, v := range in.order {
			if 2*in.loads[v] > in.total {
				return candidate{strategy: "gather", coordinator: v}
			}
			if float64(in.loads[v]) >= threshold {
				heavy = append(heavy, v)
			}
		}
		if len(heavy) == 0 {
			return candidate{strategy: "gather", coordinator: in.heaviest()}
		}
		shares := make([]int64, len(heavy)) // of a light node's data, per heavy node
		size := make([]int64, len(heavy))   // |M_j|
		for j, v := range heavy {
			shares[j], size[j] = in.loads[v], in.loads[v]
			if uniformLight {
				shares[j] = 1
			}
		}
		slice := make([][]int64, len(in.nodes)) // light node i ships slice[i][j] keys to v_j
		for i, frag := range in.data {
			if len(frag) > 0 && float64(len(frag)) < threshold {
				slice[i] = place.ProportionalInt(shares, int64(len(frag)))
				for j, c := range slice[i] {
					size[j] += c
				}
			}
		}
		held := &holders{keys: make([][]uint64, len(in.nodes)), seeds: make([]int64, len(in.nodes))}
		for j, v := range heavy {
			i := in.t.ComputeIndex(v)
			held.keys[i] = append(make([]uint64, 0, size[j]), in.data[i]...)
			held.seeds[i] = in.seed + int64(j)*in.stride
		}
		for i, frag := range in.data {
			for j, c := range slice[i] {
				h := in.t.ComputeIndex(heavy[j])
				held.keys[h] = append(held.keys[h], frag[:c]...)
				frag = frag[c:]
			}
		}
		return candidate{
			strategy:    "wts",
			coordinator: heavy[0],
			holders:     held,
			dsts:        heavy,
			ship: func(v topology.NodeID, out *netsim.Outbox) {
				i := in.t.ComputeIndex(v)
				frag := in.data[i]
				for j, c := range slice[i] {
					if c > 0 {
						out.Send(heavy[j], netsim.TagData, frag[:c])
					}
					frag = frag[c:]
				}
			},
			pick: func(sorted []uint64) []uint64 {
				counts := make([]int64, len(heavy))
				for j := range heavy {
					counts[j] = (p*size[j] + in.total - 1) / in.total
				}
				return chooseSplitters(sorted, p, counts)
			},
		}
	}
}
