package sorting

import (
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// FixtureTrees hands the external test package the golden fixture trees.
var FixtureTrees = fixtureTrees

// CheckPlanned is checkCheapest for the planned sort of the given task name,
// "sort" or "sort-aware".
func CheckPlanned(t *testing.T, at, name string, tr *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) *Result {
	t.Helper()
	for _, ps := range plannedSorts {
		if ps.name == name {
			return checkCheapest(t, at, ps, tr, data, seed, opts...)
		}
	}
	t.Fatalf("no planned sort %q", name)
	return nil
}
