package topompc

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"topompc/internal/dataset"
)

func split(t *testing.T, keys []uint64, p int) [][]uint64 {
	t.Helper()
	pl, err := dataset.SplitUniform(keys, p)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestClusterBuilders(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Cluster, error)
		nodes int
	}{
		{"star", func() (*Cluster, error) { return StarCluster([]float64{1, 2, 3}) }, 3},
		{"twotier", func() (*Cluster, error) { return TwoTierCluster([]int{2, 2}, []float64{4, 1}, 8) }, 4},
		{"fattree", func() (*Cluster, error) { return FatTreeCluster(2, 2, 1, 2) }, 4},
		{"caterpillar", func() (*Cluster, error) { return CaterpillarCluster([]float64{1, 2}, 3) }, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if c.NumNodes() != tc.nodes {
				t.Errorf("NumNodes = %d, want %d", c.NumNodes(), tc.nodes)
			}
			if len(c.NodeNames()) != tc.nodes {
				t.Error("NodeNames wrong length")
			}
			if c.String() == "" {
				t.Error("empty rendering")
			}
		})
	}
}

func TestParseCluster(t *testing.T) {
	spec := []byte(`{"nodes":[{"name":"w","compute":false},{"name":"a","compute":true},{"name":"b","compute":true}],
		"edges":[{"a":1,"b":0,"bw":2},{"a":2,"b":0,"bw":3}]}`)
	c, err := ParseCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", c.NumNodes())
	}
	if _, err := ParseCluster([]byte("{")); err == nil {
		t.Error("expected parse error")
	}
}

func TestClusterIntersect(t *testing.T) {
	c, err := TwoTierCluster([]int{2, 2}, []float64{4, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	r, s, err := dataset.SetPair(rng, 200, 800, 60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Intersect(split(t, r, 4), split(t, s, 4), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 60 {
		t.Errorf("|R∩S| = %d, want 60", len(res.Keys))
	}
	if res.Cost.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Cost.Rounds)
	}
	if res.Cost.Ratio() <= 0 {
		t.Errorf("ratio = %v", res.Cost.Ratio())
	}

	base, err := c.IntersectBaseline(split(t, r, 4), split(t, s, 4), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Keys) != 60 {
		t.Errorf("baseline |R∩S| = %d, want 60", len(base.Keys))
	}
}

func TestClusterIntersectFragmentMismatch(t *testing.T) {
	c, _ := StarCluster([]float64{1, 1})
	if _, err := c.Intersect(make([][]uint64, 3), make([][]uint64, 2), 1); err == nil {
		t.Error("expected fragment count error")
	}
	if _, err := c.Intersect(make([][]uint64, 2), make([][]uint64, 1), 1); err == nil {
		t.Error("expected fragment count error")
	}
}

func TestClusterCartesianEqual(t *testing.T) {
	c, err := StarCluster([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	r := dataset.Distinct(rng, 300)
	s := dataset.Distinct(rng, 300)
	res, err := c.CartesianProduct(split(t, r, 3), split(t, s, 3))
	if err != nil {
		t.Fatal(err)
	}
	var pairs int64
	for _, p := range res.PairsPerNode {
		pairs += p
	}
	if pairs < 300*300 {
		t.Errorf("pairs = %d, want ≥ %d", pairs, 300*300)
	}
	if res.Cost.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Cost.Rounds)
	}
}

func TestClusterCartesianUnequal(t *testing.T) {
	c, err := StarCluster([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	r := dataset.Distinct(rng, 40)
	s := dataset.Distinct(rng, 640)
	res, err := c.CartesianProduct(split(t, r, 3), split(t, s, 3))
	if err != nil {
		t.Fatal(err)
	}
	var pairs int64
	for _, p := range res.PairsPerNode {
		pairs += p
	}
	if pairs < int64(40)*640 {
		t.Errorf("pairs = %d, want ≥ %d", pairs, 40*640)
	}
}

func TestClusterSort(t *testing.T) {
	c, err := TwoTierCluster([]int{3, 3}, []float64{2, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	keys := dataset.Distinct(rng, 6000)
	res, err := c.Sort(split(t, keys, 6), 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Rounds > 4 {
		t.Errorf("rounds = %d, want ≤ 4", res.Cost.Rounds)
	}
	// Concatenation along NodeOrder must be globally sorted.
	var all []uint64
	for _, i := range res.NodeOrder {
		all = append(all, res.PerNode[i]...)
	}
	if len(all) != 6000 {
		t.Fatalf("output has %d keys, want 6000", len(all))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Error("global order violated")
	}

	base, err := c.SortBaseline(split(t, keys, 6), 42)
	if err != nil {
		t.Fatal(err)
	}
	var baseAll []uint64
	for _, i := range base.NodeOrder {
		baseAll = append(baseAll, base.PerNode[i]...)
	}
	if !sort.SliceIsSorted(baseAll, func(i, j int) bool { return baseAll[i] < baseAll[j] }) {
		t.Error("baseline global order violated")
	}
}

func TestClusterLowerBounds(t *testing.T) {
	c, err := StarCluster([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	nR := []int64{25, 25, 25, 25}
	nS := []int64{75, 75, 75, 75}
	ilb, clb, slb, err := c.LowerBounds(nR, nS)
	if err != nil {
		t.Fatal(err)
	}
	if ilb <= 0 || clb <= 0 || slb <= 0 {
		t.Errorf("bounds = %v %v %v, want positive", ilb, clb, slb)
	}
	// Intersection bound is capped by |R| = 100, per-edge data is 100:
	// both give 100.
	if ilb != 100 {
		t.Errorf("intersection LB = %v, want 100", ilb)
	}
	if _, _, _, err := c.LowerBounds(nR[:2], nS); err == nil {
		t.Error("expected size mismatch error")
	}
}

// TestLowerBoundsCartesianUnequalSizes: Theorems 3+4 assume |R| = |S|, so
// for unequal sizes LowerBounds must report the bound CartesianProduct
// reports for them — a bound the protocol's cost can actually meet.
func TestLowerBoundsCartesianUnequalSizes(t *testing.T) {
	c, err := StarCluster([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := [][]uint64{{1}, {2}}
	s := make([][]uint64, 2)
	for k := uint64(0); k < 1000; k++ {
		s[k%2] = append(s[k%2], 10+k)
	}
	res, err := c.CartesianProduct(r, s)
	if err != nil {
		t.Fatal(err)
	}
	_, clb, _, err := c.LowerBounds([]int64{1, 1}, []int64{500, 500})
	if err != nil {
		t.Fatal(err)
	}
	if clb > res.Cost.Cost {
		t.Errorf("LowerBounds claims a cartesian bound of %v, CartesianProduct runs at cost %v", clb, res.Cost.Cost)
	}
	if clb != res.Cost.LowerBound {
		t.Errorf("LowerBounds reports %v, CartesianProduct %v for the same sizes", clb, res.Cost.LowerBound)
	}
	if clb > 2 {
		t.Errorf("cartesian bound = %v, want at most 2", clb)
	}
}

// TestCartesianCoverageTermOnUniformStar: on a uniformly placed star with
// |R| < |S| Theorem 9's coverage term exceeds the cut, and CartesianProduct
// and LowerBounds both report it. 16 unit leaves hold 25 tuples of R and
// 100 of S each: the cut is 125 per leaf, the coverage term 200 (16·C² =
// |R|·|S|), and the protocol's cost is at least that.
func TestCartesianCoverageTermOnUniformStar(t *testing.T) {
	const p = 16
	weights := make([]float64, p)
	r, s := make([][]uint64, p), make([][]uint64, p)
	nR, nS := make([]int64, p), make([]int64, p)
	for i := range weights {
		weights[i] = 1
		for k := 0; k < 25; k++ {
			r[i] = append(r[i], uint64(25*i+k))
		}
		for k := 0; k < 100; k++ {
			s[i] = append(s[i], uint64(100_000+100*i+k))
		}
		nR[i], nS[i] = 25, 100
	}
	c, err := StarCluster(weights)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.CartesianProduct(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if lb := res.Cost.LowerBound; math.Abs(lb-200) > 1e-6 {
		t.Errorf("CartesianProduct reports the bound %v, want the coverage term 200 (the cut is 125)", lb)
	}
	if res.Cost.Cost < res.Cost.LowerBound {
		t.Errorf("cost %v below the bound %v", res.Cost.Cost, res.Cost.LowerBound)
	}
	if _, clb, _, err := c.LowerBounds(nR, nS); err != nil || clb != res.Cost.LowerBound {
		t.Errorf("LowerBounds reports %v (%v), CartesianProduct %v", clb, err, res.Cost.LowerBound)
	}
}

func TestCostRatio(t *testing.T) {
	c := Cost{Cost: 10, LowerBound: 4}
	if c.Ratio() != 2.5 {
		t.Errorf("ratio = %v, want 2.5", c.Ratio())
	}
	zero := Cost{}
	if zero.Ratio() != 1 {
		t.Errorf("zero ratio = %v, want 1", zero.Ratio())
	}
}
