package place

import (
	"fmt"

	"topompc/internal/obs"
)

// TraceCombine records the hierarchy's combining decisions in the flight
// recorder: one instant event per (level, block) carrying the block's
// threshold, size, weight share, combiner, and whether a merge round pays
// — the same CombinePays verdicts the up-sweep executes. Protocols call it once per run so a trace shows *why*
// each level merged or stayed direct. No-op on a nil tracer or hierarchy.
func (h *Hierarchy) TraceCombine(tc obs.Tracer, weights []float64) {
	if tc == nil || h == nil {
		return
	}
	tid := tc.NewTid("place combine decisions")
	pays := h.CombinePays(weights)
	var total float64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		total = 1
	}
	for k, plan := range h.Levels {
		bw := h.BlockWeights(k, weights)
		for b, members := range plan.Blocks {
			obs.Instant(tc, tid, fmt.Sprintf("level %d block %d", k, b), "place.combine", map[string]any{
				"level":        k,
				"threshold":    h.Thresholds[k],
				"block":        b,
				"members":      len(members),
				"weight_share": bw[b] / total,
				"combiner":     plan.Combiner[b],
				"pays":         pays[k][b],
			})
		}
	}
}
