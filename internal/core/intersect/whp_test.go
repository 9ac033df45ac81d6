package intersect

import (
	"math/rand"
	"sort"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/topology"
)

// TestTreeIntersectHighProbability runs the same instance under many
// independent hash seeds and checks the distribution of cost ratios: the
// Theorem 2 guarantee is "with high probability", so the ratio must stay
// within the log envelope on every seed and be small at the median.
func TestTreeIntersectHighProbability(t *testing.T) {
	tr, err := topology.TwoTier([]int{4, 4}, []float64{2, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	p := tr.NumCompute()
	sizeR, sizeS := 500, 4000
	r, s, err := dataset.SetPair(rng, sizeR, sizeS, 100)
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := dataset.SplitZipf(rng, r, p, 1.0)
	ps, _ := dataset.SplitZipf(rng, s, p, 1.0)
	loads := make(topology.Loads, tr.NumNodes())
	for i, v := range tr.ComputeNodes() {
		loads[v] = int64(len(pr[i]) + len(ps[i]))
	}
	lb := lowerbound.Intersection(tr, loads, int64(sizeR), int64(sizeS))

	const seeds = 50
	ratios := make([]float64, 0, seeds)
	for seed := uint64(0); seed < seeds; seed++ {
		res, err := Tree(tr, pr, ps, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(Reference(pr, ps), res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ratios = append(ratios, netsim.Ratio(res.Report.TotalCost(), lb.Value))
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	worst := ratios[len(ratios)-1]
	if median > 4 {
		t.Errorf("median ratio %.2f too large for a typical instance", median)
	}
	if worst > 16 {
		t.Errorf("worst-seed ratio %.2f escapes any reasonable envelope", worst)
	}
	// The spread between median and max should be modest: concentration is
	// the whole point of the Chernoff argument in Lemma 1.
	if worst > 4*median {
		t.Errorf("ratio spread too wide: median %.2f, worst %.2f", median, worst)
	}
}

// TestNormalizationPreservesCost verifies the §2.1 claim that pushing
// compute nodes to leaves over infinite-bandwidth stubs changes nothing:
// the same protocol on the normalized tree reports the same cost.
func TestNormalizationPreservesCost(t *testing.T) {
	// Tree with internal compute nodes.
	b := topology.NewBuilder()
	v1 := b.Compute("v1")
	v2 := b.Compute("v2")
	v3 := b.Compute("v3")
	v4 := b.Compute("v4")
	b.Link(v2, v1, 2)
	b.Link(v3, v2, 3)
	b.Link(v4, v2, 1)
	tr := b.MustBuild()

	norm, m := topology.EnsureComputeLeaves(tr)
	if norm == tr {
		t.Fatal("expected normalization to change the tree")
	}

	rng := rand.New(rand.NewSource(5))
	r, s, err := dataset.SetPair(rng, 200, 800, 50)
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := dataset.SplitUniform(r, tr.NumCompute())
	ps, _ := dataset.SplitUniform(s, tr.NumCompute())

	// Remap fragments onto the normalized tree's compute order.
	idx2 := make(map[topology.NodeID]int)
	for j, v := range norm.ComputeNodes() {
		idx2[v] = j
	}
	pr2 := make(dataset.Placement, norm.NumCompute())
	ps2 := make(dataset.Placement, norm.NumCompute())
	for i, v := range tr.ComputeNodes() {
		j := idx2[m.OldToNew[v]]
		pr2[j] = pr[i]
		ps2[j] = ps[i]
	}

	resA, err := Tree(tr, pr, ps, 9)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Tree(norm, pr2, ps2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(Reference(pr, ps), resA); err != nil {
		t.Fatal(err)
	}
	if err := Verify(Reference(pr2, ps2), resB); err != nil {
		t.Fatal(err)
	}
	// Loads and therefore the partition may hash differently (different
	// node identities), so costs need not be equal to the element — but
	// the lower bounds must be identical and both runs must stay within
	// the same envelope.
	loadsA := make(topology.Loads, tr.NumNodes())
	for i, v := range tr.ComputeNodes() {
		loadsA[v] = int64(len(pr[i]) + len(ps[i]))
	}
	loadsB := make(topology.Loads, norm.NumNodes())
	for j, v := range norm.ComputeNodes() {
		loadsB[v] = int64(len(pr2[j]) + len(ps2[j]))
	}
	lbA := lowerbound.Intersection(tr, loadsA, 200, 800)
	lbB := lowerbound.Intersection(norm, loadsB, 200, 800)
	if lbA.Value != lbB.Value {
		t.Errorf("normalization changed the lower bound: %v -> %v", lbA.Value, lbB.Value)
	}
}

// TestStarIntersectHighProbability mirrors the tree w.h.p. test for the
// faithful Algorithm 1 implementation on a heterogeneous star.
func TestStarIntersectHighProbability(t *testing.T) {
	tr, err := topology.Star([]float64{1, 2, 4, 8, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(88))
	p := tr.NumCompute()
	sizeR, sizeS := 400, 3600
	r, s, err := dataset.SetPair(rng, sizeR, sizeS, 80)
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := dataset.SplitZipf(rng, r, p, 0.8)
	ps, _ := dataset.SplitZipf(rng, s, p, 0.8)
	loads := make(topology.Loads, tr.NumNodes())
	for i, v := range tr.ComputeNodes() {
		loads[v] = int64(len(pr[i]) + len(ps[i]))
	}
	lb := lowerbound.Intersection(tr, loads, int64(sizeR), int64(sizeS))

	worst := 0.0
	for seed := uint64(0); seed < 40; seed++ {
		res, err := Star(tr, pr, ps, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(Reference(pr, ps), res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ratio := netsim.Ratio(res.Report.TotalCost(), lb.Value); ratio > worst {
			worst = ratio
		}
	}
	if worst > 16 {
		t.Errorf("worst-seed Star ratio %.2f escapes the envelope", worst)
	}
}
