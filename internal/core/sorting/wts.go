package sorting

import (
	"topompc/internal/core/place"
	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// wtsStride separates the sampling seeds of consecutive heavy nodes in WTS
// and WTSUnpriced.
const wtsStride = 7919

// LightRouting is how wTS's round 1 splits a light node's data across the
// heavy nodes.
type LightRouting int

const (
	// ProportionalLight splits it in proportion to the heavy nodes' sizes
	// (Algorithm 6).
	ProportionalLight LightRouting = iota
	// UniformLight splits it evenly: the third wTS generalization of §5.2
	// switched off (ablation A3).
	UniformLight
)

// WTS is the planned weighted TeraSort: it prices two plans on the instance
// (netsim.Exchange.Price) and runs the cheaper on the same engine. The first
// is weighted TeraSort ("wts", §5.2), the four-round protocol of Theorem 7:
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
// output respects the canonical valid ordering. The second is a gather
// ("gather"): one round to the heaviest holder, which sorts locally. It
// generalizes the paper's suggested improvement that a node holding a
// majority of the data receives everything, and it is what remains far below
// Theorem 7's regime N ≥ 4|VC|²ln(|VC|N).
//
// wTS is priced from its heavy nodes' key counts per splitter interval, on
// views of the placement: no key is copied for a plan that loses. Ties go to
// the gather, which runs fewer rounds; Result.Strategy names the winner.
func WTS(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*Result, error) {
	return planSort(t, data, seed, wtsStride, opts, weightedRanges(ProportionalLight), gatherHeaviest)
}

// WTSUnpriced runs weighted TeraSort alone, with round 1 splitting the light
// nodes' data by the given rule, whatever a gather would cost. Its
// Result.Strategy is "wts"; the ablations call it so that both arms run the
// same protocol.
func WTSUnpriced(t *topology.Tree, data dataset.Placement, seed uint64, light LightRouting, opts ...netsim.Option) (*Result, error) {
	return planSort(t, data, seed, wtsStride, opts, weightedRanges(light))
}

// weightedRanges lays out wTS: the ship round from the light nodes, after
// which heavy node v_j holds its working set M_j — its own fragment, then
// its deliveries in sender order, as views of the placement — samples it as
// holder j and receives key interval j. For N > 0 the heaviest node is
// heavy (it holds at least N/|VC|).
func weightedRanges(light LightRouting) layout {
	return func(in *instance) candidate {
		p := int64(len(in.nodes))
		threshold := float64(in.total) / float64(2*p)
		var heavy []topology.NodeID // v₁ … v_k
		for _, v := range in.order {
			if float64(in.loads[v]) >= threshold {
				heavy = append(heavy, v)
			}
		}
		shares := make([]int64, len(heavy)) // of a light node's data, per heavy node
		size := make([]int64, len(heavy))   // |M_j|
		held := &holders{parts: make([][][]uint64, len(in.nodes)), seeds: make([]int64, len(in.nodes))}
		for j, v := range heavy {
			shares[j], size[j] = in.loads[v], in.loads[v]
			if light == UniformLight {
				shares[j] = 1
			}
			i := in.t.ComputeIndex(v)
			held.parts[i] = in.data[i : i+1 : i+1]
			held.seeds[i] = in.seed + int64(j)*in.stride
		}
		slice := make([][]int64, len(in.nodes)) // light node i ships slice[i][j] keys to v_j
		for i, frag := range in.data {
			if len(frag) > 0 && float64(len(frag)) < threshold {
				slice[i] = place.ProportionalInt(shares, int64(len(frag)))
				for j, c := range slice[i] {
					if c > 0 {
						h := in.t.ComputeIndex(heavy[j])
						held.parts[h] = append(held.parts[h], frag[:c])
						size[j] += c
					}
					frag = frag[c:]
				}
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
