package netsim

import (
	"fmt"
	"math"
	"strings"

	"topompc/internal/topology"
)

// RoundStats records the cost accounting of one completed round. It holds
// scalars only: the round's per-edge and per-node counts are folded into the
// totals on Report.
type RoundStats struct {
	Index          int
	Cost           float64 // max_e |Y_i(e)| / w_e over the round's edge counts
	BottleneckEdge topology.EdgeID
	MaxReceived    int64 // max over nodes of elements received this round
	Messages       int
	Elements       int64 // total elements across all messages
}

// Report aggregates the statistics of a protocol execution.
type Report struct {
	Tree   *topology.Tree
	Rounds []RoundStats

	// Cumulative totals across all rounds: elements crossing each edge, by
	// EdgeID, and elements emitted by and delivered to each node, by NodeID
	// (a multicast is emitted once; self-sends are neither).
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
	cost := r.TotalCost()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %12s %12s %8s\n", "link", "elements", "time", "of cost")
	for e, n := range r.EdgeTotals {
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
