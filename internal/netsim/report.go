package netsim

import (
	"fmt"
	"math"
	"strings"

	"topompc/internal/topology"
)

// RoundStats records the cost accounting of one completed round.
//
// Under WithLeanStats the three per-round arrays are nil — the engine folds
// them into cumulative totals exposed on Report instead — and the scalar
// fields (Cost, BottleneckEdge, MaxReceived, Messages, Elements) carry all
// per-round information.
type RoundStats struct {
	Index          int
	EdgeElems      []int64 // elements crossing each edge, by EdgeID (nil in lean mode)
	NodeSent       []int64 // elements emitted by each node, by NodeID (nil in lean mode)
	NodeReceived   []int64 // elements delivered to each node, self-sends excluded (nil in lean mode)
	Cost           float64 // max_e EdgeElems[e] / w_e
	BottleneckEdge topology.EdgeID
	MaxReceived    int64 // max over nodes of elements received this round
	Messages       int
	Elements       int64 // total elements across all messages
}

// Report aggregates the statistics of a protocol execution.
type Report struct {
	Tree   *topology.Tree
	Rounds []RoundStats

	// Cumulative per-edge / per-node totals across all rounds, populated by
	// engines running under WithLeanStats (where the per-round arrays are
	// not retained). Nil otherwise; the aggregate queries below fall back
	// to summing the per-round arrays.
	EdgeTotals []int64
	SentTotals []int64
	RecvTotals []int64
}

// NumRounds reports how many rounds the protocol used.
func (r *Report) NumRounds() int { return len(r.Rounds) }

// TotalCost reports cost(A) = Σ_i max_e |Y_i(e)|/w_e in elements.
func (r *Report) TotalCost() float64 {
	var c float64
	for _, rd := range r.Rounds {
		c += rd.Cost
	}
	return c
}

// TotalElements reports the total number of elements sent across all
// rounds (counting each message payload once, not per link).
func (r *Report) TotalElements() int64 {
	var n int64
	for _, rd := range r.Rounds {
		n += rd.Elements
	}
	return n
}

// MPCCost reports the protocol's cost under the classical MPC metric: the
// sum over rounds of the maximum elements received by any single node.
// Comparing it with TotalCost shows how much of an instance's difficulty
// comes from the topology rather than node load.
func (r *Report) MPCCost() float64 {
	var total int64
	for _, rd := range r.Rounds {
		worst := rd.MaxReceived
		for _, n := range rd.NodeReceived {
			if n > worst {
				worst = n
			}
		}
		total += worst
	}
	return float64(total)
}

// NodeTotals reports per-node (sent, received) element totals across all
// rounds, indexed by NodeID.
func (r *Report) NodeTotals() (sent, received []int64) {
	if r.SentTotals != nil {
		return append([]int64(nil), r.SentTotals...), append([]int64(nil), r.RecvTotals...)
	}
	if len(r.Rounds) == 0 || r.Rounds[0].NodeSent == nil {
		return nil, nil
	}
	sent = make([]int64, len(r.Rounds[0].NodeSent))
	received = make([]int64, len(r.Rounds[0].NodeReceived))
	for _, rd := range r.Rounds {
		for v, n := range rd.NodeSent {
			sent[v] += n
		}
		for v, n := range rd.NodeReceived {
			received[v] += n
		}
	}
	return sent, received
}

// MaxEdgeElems reports, per edge, the total elements across all rounds.
func (r *Report) MaxEdgeElems() []int64 {
	if r.EdgeTotals != nil {
		return append([]int64(nil), r.EdgeTotals...)
	}
	if len(r.Rounds) == 0 || r.Rounds[0].EdgeElems == nil {
		return nil
	}
	total := make([]int64, len(r.Rounds[0].EdgeElems))
	for _, rd := range r.Rounds {
		for e, n := range rd.EdgeElems {
			total[e] += n
		}
	}
	return total
}

// String renders a per-round summary table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rounds=%d total_cost=%.3f elements=%d\n", r.NumRounds(), r.TotalCost(), r.TotalElements())
	for _, rd := range r.Rounds {
		bn := "-"
		if rd.BottleneckEdge != topology.NoEdge && r.Tree != nil {
			a, b := r.Tree.Endpoints(rd.BottleneckEdge)
			bn = fmt.Sprintf("%s—%s", r.Tree.Name(a), r.Tree.Name(b))
		}
		fmt.Fprintf(&sb, "  round %d: cost=%.3f msgs=%d elems=%d bottleneck=%s\n",
			rd.Index+1, rd.Cost, rd.Messages, rd.Elements, bn)
	}
	return sb.String()
}

// EdgeTable renders a per-edge utilization table across all rounds: total
// elements, transfer time (elements/bandwidth), and the share of the
// protocol cost this edge would impose alone. Useful for spotting which
// physical link binds a protocol.
func (r *Report) EdgeTable() string {
	if r.Tree == nil || len(r.Rounds) == 0 {
		return "(no rounds)\n"
	}
	totals := r.MaxEdgeElems()
	cost := r.TotalCost()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %12s %12s %8s\n", "link", "elements", "time", "of cost")
	for e, n := range totals {
		a, b := r.Tree.Endpoints(topology.EdgeID(e))
		w := r.Tree.Bandwidth(topology.EdgeID(e))
		t := float64(n) / w
		share := 0.0
		if cost > 0 {
			share = t / cost
		}
		fmt.Fprintf(&sb, "%-20s %12d %12.1f %7.0f%%\n",
			fmt.Sprintf("%s—%s", r.Tree.Name(a), r.Tree.Name(b)), n, t, share*100)
	}
	return sb.String()
}

// Ratio reports measured/bound, the optimality ratio against a lower
// bound. A zero or negative bound with a positive cost reports +Inf; if
// both are zero the ratio is 1 (the protocol is trivially optimal).
func Ratio(measured, bound float64) float64 {
	if bound <= 0 {
		if measured <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return measured / bound
}
