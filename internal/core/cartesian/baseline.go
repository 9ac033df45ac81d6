package cartesian

import (
	"fmt"
	"math"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// UniformGrid is the topology-oblivious HyperCube baseline (Afrati-Ullman):
// every node gets the same square side regardless of link bandwidths or
// data placement — the classic MPC strategy for p symmetric workers. Used
// as the comparison point for the weighted protocols (experiment E10/A4).
func UniformGrid(t *topology.Tree, r, s dataset.Placement, opts ...netsim.Option) (*Result, error) {
	in, err := newInstance(t, r, s)
	if err != nil {
		return nil, err
	}
	in.opts = opts
	if in.sizeR != in.sizeS {
		return nil, fmt.Errorf("cartesian: UniformGrid requires |R| = |S| (got %d, %d)", in.sizeR, in.sizeS)
	}
	if in.sizeR == 0 {
		return emptyResult(in), nil
	}
	n := in.loads.Total()
	p := len(in.nodes)
	root := int64(math.Floor(math.Sqrt(float64(p))))
	if root < 1 {
		root = 1
	}
	side := nextPow2((n + root - 1) / root)
	sides := make([]int64, p)
	for i := range sides {
		sides[i] = side
	}
	placed, covered, err := PackLemma5(sides, in.nodes)
	if err != nil {
		return nil, err
	}
	if covered < in.sizeR {
		return nil, fmt.Errorf("cartesian: uniform grid covers %d of %d (internal error)", covered, in.sizeR)
	}
	return distribute(in, layout{rectsFromPlacement(in, placed), "uniform"})
}
