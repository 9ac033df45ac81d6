package topompc

import (
	"errors"
	"math/rand"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/topology"
)

// Error-path coverage for the public facade: invalid cluster parameters and
// ill-shaped inputs must fail loudly, never panic or mis-run.

func TestClusterBuilderErrors(t *testing.T) {
	if _, err := StarCluster(nil); err == nil {
		t.Error("empty star accepted")
	}
	if _, err := StarCluster([]float64{0}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := StarCluster([]float64{-1}); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if _, err := TwoTierCluster([]int{2}, []float64{1, 2}, 1); err == nil {
		t.Error("rack/uplink length mismatch accepted")
	}
	if _, err := FatTreeCluster(0, 2, 1, 2); err == nil {
		t.Error("zero-level fat tree accepted")
	}
	if _, err := CaterpillarCluster(nil, 1); err == nil {
		t.Error("empty caterpillar accepted")
	}
}

// TestParseClusterRejectsNonTrees: n-1 links that close a cycle, or that
// join one pair twice, are a named error, not a hang or a corrupt tree.
func TestParseClusterRejectsNonTrees(t *testing.T) {
	for name, spec := range map[string]string{
		"triangle-and-isolated": `{"nodes":[{"name":"a","compute":true},{"name":"b","compute":true},{"name":"c","compute":true},{"name":"d","compute":true}],
			"edges":[{"a":0,"b":1,"bw":1},{"a":1,"b":2,"bw":1},{"a":2,"b":0,"bw":1}]}`,
		"isolated-router-and-triangle": `{"nodes":[{"name":"w"},{"name":"a","compute":true},{"name":"b","compute":true},{"name":"c","compute":true}],
			"edges":[{"a":1,"b":2,"bw":1},{"a":2,"b":3,"bw":1},{"a":3,"b":1,"bw":1}]}`,
		"duplicate-link": `{"nodes":[{"name":"a","compute":true},{"name":"b","compute":true},{"name":"c","compute":true}],
			"edges":[{"a":0,"b":1,"bw":1},{"a":1,"b":0,"bw":2}]}`,
	} {
		if _, err := ParseCluster([]byte(spec)); !errors.Is(err, topology.ErrNotTree) {
			t.Errorf("%s: got %v, want %v", name, err, topology.ErrNotTree)
		}
	}
}

func TestCartesianUnequalNonStarRejected(t *testing.T) {
	c, err := TwoTierCluster([]int{2, 2}, []float64{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	r := dataset.Distinct(rng, 10)
	s := dataset.Distinct(rng, 100)
	pr, _ := dataset.SplitUniform(r, 4)
	ps, _ := dataset.SplitUniform(s, 4)
	// Unequal sizes on a non-star topology: the paper leaves this open and
	// the library must say so rather than guess.
	if _, err := c.CartesianProduct(pr, ps); err == nil {
		t.Error("unequal cartesian product on a tree should be rejected")
	}
}

func TestSortFragmentMismatch(t *testing.T) {
	c, _ := StarCluster([]float64{1, 1})
	if _, err := c.Sort(make([][]uint64, 3), 1); err == nil {
		t.Error("expected fragment count error")
	}
	if _, err := c.SortBaseline(make([][]uint64, 3), 1); err == nil {
		t.Error("expected fragment count error")
	}
}

func TestCartesianFragmentMismatch(t *testing.T) {
	c, _ := StarCluster([]float64{1, 1})
	if _, err := c.CartesianProduct(make([][]uint64, 1), make([][]uint64, 2)); err == nil {
		t.Error("expected fragment count error for r")
	}
	if _, err := c.CartesianProduct(make([][]uint64, 2), make([][]uint64, 3)); err == nil {
		t.Error("expected fragment count error for s")
	}
}

func TestEmptyInputsAreCheap(t *testing.T) {
	c, _ := StarCluster([]float64{1, 1, 1})
	empty := make([][]uint64, 3)
	ires, err := c.Intersect(empty, empty, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ires.Keys) != 0 || ires.Cost.Cost != 0 {
		t.Error("empty intersection should be free")
	}
	cres, err := c.CartesianProduct(empty, empty)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Cost.Cost != 0 {
		t.Error("empty cartesian product should be free")
	}
	sres, err := c.Sort(empty, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Cost.Cost != 0 {
		t.Error("empty sort should be free")
	}
	ares, err := c.Aggregate(make([][]GroupValue, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ares.Totals) != 0 || ares.Cost.Cost != 0 {
		t.Error("empty aggregation should be free")
	}
	jres, err := c.Join(make([][]Row, 3), make([][]Row, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if jres.Pairs != 0 || jres.Cost.Cost != 0 {
		t.Error("empty join should be free")
	}
}

func TestParseClusterInfiniteBandwidth(t *testing.T) {
	spec := []byte(`{"nodes":[{"name":"w","compute":false},{"name":"a","compute":true},{"name":"b","compute":true}],
		"edges":[{"a":1,"b":0,"bw":-1},{"a":2,"b":0,"bw":1}]}`)
	c, err := ParseCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Data crossing the infinite link must be free: intersect with all data
	// on node a and results needed everywhere still costs only the finite
	// link.
	rng := rand.New(rand.NewSource(2))
	r, s, err := dataset.SetPair(rng, 100, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := dataset.SplitSingle(r, 2, 0)
	ps, _ := dataset.SplitSingle(s, 2, 0)
	res, err := c.Intersect(pr, ps, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 10 {
		t.Errorf("|R∩S| = %d, want 10", len(res.Keys))
	}
}
