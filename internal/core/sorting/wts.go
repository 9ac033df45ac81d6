package sorting

import (
	"math"

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
	return WTSWithOpts(t, data, seed, Opts{}, opts...)
}

// Opts tunes WTS for ablation experiments.
type Opts struct {
	// UniformLight makes round 1 split light-node data evenly across the
	// heavy nodes instead of proportionally to their sizes (disabling the
	// third wTS generalization of §5.2; ablation A3).
	UniformLight bool
}

// WTSWithOpts is WTS with ablation options.
func WTSWithOpts(t *topology.Tree, data dataset.Placement, seed uint64, opts Opts, eopts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, data)
	if err != nil {
		return nil, err
	}
	if in.total == 0 {
		return in.emptyResult("wts"), nil
	}
	p := int64(len(in.nodes))

	// Paper's improvement: a majority holder gathers everything.
	for _, v := range in.nodes {
		if 2*in.loads[v] > in.total {
			return gather(in, v, eopts), nil
		}
	}

	// Heavy/light split: heavy ⇔ N_v ≥ N/(2|VC|); labeled in left-to-right
	// order.
	order := t.LeftToRight()
	threshold := float64(in.total) / float64(2*p)
	var heavy []topology.NodeID        // v₁ … v_k, left-to-right
	rank := make([]int, len(in.nodes)) // compute index -> j of v_j, -1 for a light node
	for i := range rank {
		rank[i] = -1
	}
	for _, v := range order {
		if float64(in.loads[v]) >= threshold {
			rank[t.ComputeIndex(v)] = len(heavy)
			heavy = append(heavy, v)
		}
	}
	if len(heavy) == 0 {
		return gather(in, in.heaviest(), eopts), nil
	}
	k := len(heavy)
	shares := make([]int64, k) // of a light node's data, per heavy node
	for j, v := range heavy {
		shares[j] = in.loads[v]
		if opts.UniformLight {
			shares[j] = 1
		}
	}

	e := netsim.NewEngine(t, eopts...)

	// Round 1: light → heavy, proportional slices.
	x := e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		i := t.ComputeIndex(v)
		if rank[i] >= 0 || len(in.data[i]) == 0 {
			return
		}
		counts := place.ProportionalInt(shares, int64(len(in.data[i])))
		off := int64(0)
		for j, c := range counts {
			if c > 0 {
				out.Send(heavy[j], netsim.TagData, in.data[i][off:off+c])
			}
			off += c
		}
	})
	x.Execute()

	// Heavy node j's working set M_j: its own data plus round-1 deliveries.
	working := make([][]uint64, k)
	for j, v := range heavy {
		ib, own := e.Inbox(v), in.data[t.ComputeIndex(v)]
		working[j] = make([]uint64, 0, len(own)+ib.KeyCount(netsim.TagData))
		working[j] = ib.AppendKeys(append(working[j], own...), netsim.TagData)
	}

	// Round 2: heavy nodes sample at rate ρ and send samples to v₁.
	rho := SampleRate(len(in.nodes), in.total)
	coordinator := heavy[0]
	x = e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		j := rank[t.ComputeIndex(v)]
		if j < 0 {
			return
		}
		if samples := sample(working[j], int64(seed)+int64(j)*7919, rho); len(samples) > 0 {
			out.Send(coordinator, netsim.TagSample, samples)
		}
	})
	x.Execute()

	// Round 3: v₁ computes and broadcasts the splitters.
	samples, _ := e.Pool().SortUint64(e.Inbox(coordinator).Keys(netsim.TagSample), nil)
	splitters := chooseSplitters(samples, p, in.total, working)

	x = e.Exchange()
	if len(splitters) > 0 {
		x.Out(coordinator).Multicast(heavy[1:], netsim.TagSplitter, splitters)
	}
	x.Execute()

	// Round 4: redistribute by splitter interval; heavy node j takes
	// [splitters[j-1], splitters[j]).
	x = e.Exchange()
	x.Plan(func(v topology.NodeID, out *netsim.Outbox) {
		if j := rank[t.ComputeIndex(v)]; j >= 0 {
			sendBySplitter(out, working[j], splitters, heavy)
		}
	})
	x.Execute()

	// Only heavy nodes were sent anything; the rest end up empty.
	return in.result(e, order, "wts"), nil
}

// chooseSplitters picks the k−1 splitters of round 3: with
// c_j = ⌈|VC|·M_j/N⌉ fine quantile intervals allotted to heavy node j, the
// j-th splitter is the (c_1+…+c_j)·⌈s/|VC|⌉-th smallest sample (clamped to
// the sample range).
func chooseSplitters(sorted []uint64, p, total int64, working [][]uint64) []uint64 {
	k := len(working)
	if k <= 1 {
		return nil
	}
	s := int64(len(sorted))
	if s == 0 {
		// No samples (possible only for tiny inputs): all data to v₁.
		out := make([]uint64, k-1)
		for i := range out {
			out[i] = math.MaxUint64
		}
		return out
	}
	step := (s + p - 1) / p
	if step == 0 {
		step = 1
	}
	splitters := make([]uint64, 0, k-1)
	var cum int64
	for j := 0; j < k-1; j++ {
		cj := (p*int64(len(working[j])) + total - 1) / total
		cum += cj
		pos := cum * step // 1-indexed rank of t_{cum}
		if pos >= s {
			splitters = append(splitters, math.MaxUint64)
			continue
		}
		splitters = append(splitters, sorted[pos-1])
	}
	return splitters
}
