package lowerbound

import (
	"math"
	"math/rand"
	"testing"

	"topompc/internal/topology"
)

// starWithLoads builds a uniform star and a load vector from per-node sizes.
func starWithLoads(t *testing.T, bw float64, sizes ...int64) (*topology.Tree, topology.Loads) {
	t.Helper()
	tr, err := topology.UniformStar(len(sizes), bw)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := tr.ComputeLoads(sizes)
	if err != nil {
		t.Fatal(err)
	}
	return tr, loads
}

func TestIntersectionStarByHand(t *testing.T) {
	// Star, unit bandwidth, N_v = {10, 30, 60}; |R| = 20, |S| = 80.
	// Per edge: min{20, 80, N_v, 100-N_v} = {10, 20, 20}. Max = 20.
	tr, loads := starWithLoads(t, 1, 10, 30, 60)
	b := Intersection(tr, loads, 20, 80)
	if b.Value != 20 {
		t.Errorf("Value = %v, want 20", b.Value)
	}
	want := []float64{10, 20, 20}
	for e, w := range want {
		if b.PerEdge[e] != w {
			t.Errorf("PerEdge[%d] = %v, want %v", e, b.PerEdge[e], w)
		}
	}
}

func TestIntersectionBandwidthScaling(t *testing.T) {
	tr1, loads := starWithLoads(t, 1, 50, 50)
	b1 := Intersection(tr1, loads, 40, 60)
	tr2, _ := starWithLoads(t, 2, 50, 50)
	b2 := Intersection(tr2, loads, 40, 60)
	if math.Abs(b1.Value-2*b2.Value) > 1e-9 {
		t.Errorf("doubling bandwidth should halve the bound: %v vs %v", b1.Value, b2.Value)
	}
}

func TestIntersectionSmallRelationCaps(t *testing.T) {
	// A tiny R caps every edge term.
	tr, loads := starWithLoads(t, 1, 1000, 1000, 1000)
	b := Intersection(tr, loads, 5, 2995)
	if b.Value != 5 {
		t.Errorf("Value = %v, want 5 (capped by |R|)", b.Value)
	}
}

func TestCartesianCutByHand(t *testing.T) {
	// Caterpillar v1-w1-w2-v2 style: two nodes, spine bandwidth 2.
	tr, err := topology.Caterpillar([]float64{2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := tr.ComputeLoads([]int64{30, 70})
	if err != nil {
		t.Fatal(err)
	}
	b := CartesianCut(tr, loads)
	// Spine edge: min(30,70)/2 = 15; leg edges: min(30,70)/4 = 7.5 and
	// min(70,30)/4 = 7.5. Max = 15.
	if b.Value != 15 {
		t.Errorf("Value = %v, want 15", b.Value)
	}
}

func TestCartesianCoverUniformStar(t *testing.T) {
	// Uniform star, balanced loads: cover = all leaves, each subtree
	// already holding L = N/p elements. Σ (L + C·w)² ≥ N² over p leaves
	// gives L + C·w = N/√p, i.e. CLB = (N/√p − N/p)/w. (The load-free
	// textbook form N/(w·√p) over-claims whenever cover subtrees start
	// with data — a verified protocol beats it on skewed random trees.)
	p, w := 4, 2.0
	tr, loads := starWithLoads(t, w, 25, 25, 25, 25)
	clb, cover, ok := CartesianCover(tr, loads)
	if !ok {
		t.Fatal("cover bound should apply on a balanced star")
	}
	n := 100.0
	want := (n/math.Sqrt(float64(p)) - n/float64(p)) / w
	if math.Abs(clb-want) > 1e-9 {
		t.Errorf("cover CLB = %v, want %v", clb, want)
	}
	if len(cover) != p {
		t.Errorf("cover size = %d, want %d (all leaves)", len(cover), p)
	}
	// With all data outside the cover subtrees the load-free form is
	// recovered: one heavy node at the G† root side contributes no L_u.
	tr2, loads2 := starWithLoads(t, w, 0, 40, 0, 0)
	clb2, _, ok2 := CartesianCover(tr2, loads2)
	if ok2 {
		// G† roots at the heavy compute node, so Theorem 4 is off here —
		// documented behaviour, nothing to check beyond consistency.
		if clb2 < 0 {
			t.Errorf("negative CLB %v", clb2)
		}
	}
}

func TestCartesianCoverRootAtComputeNode(t *testing.T) {
	// One node holds the majority: G† roots there and Theorem 4 is off.
	tr, loads := starWithLoads(t, 1, 90, 5, 5)
	if _, _, ok := CartesianCover(tr, loads); ok {
		t.Error("cover bound should not apply when G† roots at a compute node")
	}
	// The combined bound falls back to the cut bound.
	b := Cartesian(tr, loads)
	cut := CartesianCut(tr, loads)
	if b.Value != cut.Value || b.Edge != cut.Edge {
		t.Errorf("combined bound = %v, want cut bound %v", b.Value, cut.Value)
	}
}

func TestCartesianCombinedPrefersLarger(t *testing.T) {
	// Balanced wide star: cover bound N/(w·sqrt(p)) exceeds the per-edge cut
	// bound (N/2)/w only when... for p=4: N/(2) vs N/2 — compare directly.
	tr, loads := starWithLoads(t, 1, 25, 25, 25, 25)
	cut := CartesianCut(tr, loads)
	cover, _, ok := CartesianCover(tr, loads)
	if !ok {
		t.Fatal("expected cover bound")
	}
	b := Cartesian(tr, loads)
	want := math.Max(cut.Value, cover)
	if b.Value != want {
		t.Errorf("combined = %v, want max(%v, %v)", b.Value, cut.Value, cover)
	}
	if cover > cut.Value && b.Edge != topology.NoEdge {
		t.Error("Edge should be NoEdge when the cover term binds")
	}
}

func TestSortingMatchesCutForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		tr, err := topology.Random(rng, 2+rng.Intn(6), 1+rng.Intn(4), 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		loads := make(topology.Loads, tr.NumNodes())
		for _, v := range tr.ComputeNodes() {
			loads[v] = int64(rng.Intn(500))
		}
		s := Sorting(tr, loads)
		c := CartesianCut(tr, loads)
		if s.Value != c.Value {
			t.Fatalf("sorting bound %v != cut bound %v", s.Value, c.Value)
		}
	}
}

func TestInfiniteBandwidthEdgesAreFree(t *testing.T) {
	b := topology.NewBuilder()
	v1 := b.Compute("v1")
	v2 := b.Compute("v2")
	w := b.Router("w")
	b.Link(v1, w, math.Inf(1))
	b.Link(v2, w, 1)
	tr := b.MustBuild()
	loads, _ := tr.ComputeLoads([]int64{50, 50})
	bound := CartesianCut(tr, loads)
	if bound.PerEdge[0] != 0 {
		t.Errorf("infinite edge term = %v, want 0", bound.PerEdge[0])
	}
	if bound.Value != 50 {
		t.Errorf("Value = %v, want 50", bound.Value)
	}
}

func TestUnequalCartesianCut(t *testing.T) {
	tr, loads := starWithLoads(t, 1, 500, 500)
	b := UnequalCartesianCut(tr, loads, 30)
	if b.Value != 30 {
		t.Errorf("Value = %v, want 30 (capped by |R|)", b.Value)
	}
}

// TestUnequalCartesianCoverageTerm pins Theorem 9's coverage term on a
// uniformly placed star, where it exceeds the cut: 16 unit leaves holding
// 25 tuples of R and 100 of S each. The cut is min(N_v, N − N_v, |R|) =
// min(125, 1875, 400) = 125 per leaf; every leaf is in Vα (125 < |R|), so
// the coverage term is min(|S|/max w, V) with V solving 16·C² = |R|·|S|,
// C = 200, and the reported bound is that.
func TestUnequalCartesianCoverageTerm(t *testing.T) {
	const p = 16
	tr, err := topology.UniformStar(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	loadsR, loadsS, loads := make(topology.Loads, tr.NumNodes()), make(topology.Loads, tr.NumNodes()), make(topology.Loads, tr.NumNodes())
	for _, v := range tr.ComputeNodes() {
		loadsR[v], loadsS[v], loads[v] = 25, 100, 125
	}
	if cut := UnequalCartesianCut(tr, loads, 400).Value; cut != 125 {
		t.Fatalf("cut = %v, want 125", cut)
	}
	if got := UnequalCartesian(tr, loadsR, loadsS); math.Abs(got-200) > 1e-6 {
		t.Errorf("UnequalCartesian = %v, want the coverage term 200", got)
	}
	if got := UnequalCartesian(tr, loadsS, loadsR); math.Abs(got-200) > 1e-6 {
		t.Errorf("UnequalCartesian with the relations swapped = %v, want 200", got)
	}
}

// TestUnequalCartesianCutOnly: the bound is the cut when one leaf holds a
// majority of the tuples, when no leaf is in Vα (then Σ_{Vα}|S_u| = 0 and
// the coverage term is 0), and off stars.
func TestUnequalCartesianCutOnly(t *testing.T) {
	st, err := topology.UniformStar(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	loadsR, loadsS, loads := make(topology.Loads, st.NumNodes()), make(topology.Loads, st.NumNodes()), make(topology.Loads, st.NumNodes())
	for i, v := range st.ComputeNodes() {
		if i == 3 {
			loadsR[v] = 100
		} else {
			loadsS[v] = 100
		}
		loads[v] = 100
	}
	if got, cut := UnequalCartesian(st, loadsR, loadsS), UnequalCartesianCut(st, loads, 100).Value; got != cut || cut != 100 {
		t.Errorf("no leaf in Vα: UnequalCartesian = %v, want the cut %v = 100", got, cut)
	}
	tr, err := topology.UniformStar(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	loadsR, loadsS, loads = make(topology.Loads, tr.NumNodes()), make(topology.Loads, tr.NumNodes()), make(topology.Loads, tr.NumNodes())
	for i, v := range tr.ComputeNodes() {
		loadsR[v], loadsS[v] = int64(10*(i+1)), int64(100*(i+1)*(i+1))
		loads[v] = loadsR[v] + loadsS[v]
	}
	if got, cut := UnequalCartesian(tr, loadsR, loadsS), UnequalCartesianCut(tr, loads, 60).Value; got != cut {
		t.Errorf("majority holder: UnequalCartesian = %v, want the cut %v", got, cut)
	}
	tt, err := topology.TwoTier([]int{4, 4}, []float64{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	loadsR, loadsS, loads = make(topology.Loads, tt.NumNodes()), make(topology.Loads, tt.NumNodes()), make(topology.Loads, tt.NumNodes())
	for _, v := range tt.ComputeNodes() {
		loadsR[v], loadsS[v], loads[v] = 25, 100, 125
	}
	if got, cut := UnequalCartesian(tt, loadsR, loadsS), UnequalCartesianCut(tt, loads, 200).Value; got != cut {
		t.Errorf("two-tier: UnequalCartesian = %v, want the cut %v", got, cut)
	}
}

func TestCoverageNumber(t *testing.T) {
	// Uniform star, |R| = |S| = N/2: coverage solves Σ (C·w)² = |R|·|S|,
	// i.e. C = (N/2) / sqrt(Σ w²) — the paper's L = N/√Σw² is 2× this,
	// paying for the factor-4 area loss of the Lemma 5 packing.
	weights := []float64{1, 1, 1, 1}
	n := int64(100)
	got := CoverageNumber(weights, n/2, n/2)
	want := float64(n/2) / math.Sqrt(4)
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("CoverageNumber = %v, want %v", got, want)
	}
	// Extreme skew: |R| tiny. Each node covers |R|·C·w, so C must satisfy
	// Σ |R|·C·w = |R|·|S| → C = |S|/Σw.
	got = CoverageNumber(weights, 1, 1000)
	want = 1000.0 / 4
	if math.Abs(got-want) > 1e-3*want {
		t.Errorf("skewed CoverageNumber = %v, want %v", got, want)
	}
	if CoverageNumber(weights, 0, 10) != 0 {
		t.Error("empty R should give 0")
	}
}

func TestCoverageNumberMonotone(t *testing.T) {
	weights := []float64{1, 2, 4}
	prev := 0.0
	for _, s := range []int64{10, 100, 1000, 10000} {
		c := CoverageNumber(weights, 50, s)
		if c < prev {
			t.Fatalf("coverage number not monotone in |S|: %v after %v", c, prev)
		}
		prev = c
	}
}

// TestCutBoundBruteForce cross-checks the per-edge terms against explicit
// compute-node set enumeration on random trees.
func TestCutBoundBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 50; iter++ {
		tr, err := topology.Random(rng, 2+rng.Intn(5), 1+rng.Intn(3), 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		loads := make(topology.Loads, tr.NumNodes())
		for _, v := range tr.ComputeNodes() {
			loads[v] = int64(rng.Intn(300))
		}
		b := CartesianCut(tr, loads)
		sets := tr.CutComputeSets()
		total := loads.Total()
		for e := range sets {
			var below int64
			for _, v := range sets[e] {
				below += loads[v]
			}
			above := total - below
			m := below
			if above < m {
				m = above
			}
			want := float64(m) / tr.Bandwidth(topology.EdgeID(e))
			if math.Abs(b.PerEdge[e]-want) > 1e-9 {
				t.Fatalf("edge %d term = %v, want %v", e, b.PerEdge[e], want)
			}
		}
	}
}
