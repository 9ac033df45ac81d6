package sorting

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/topology"
)

func TestBucketOf(t *testing.T) {
	splitters := []uint64{10, 20, 30}
	cases := map[uint64]int{0: 0, 9: 0, 10: 1, 19: 1, 20: 2, 29: 2, 30: 3, 1000: 3}
	for x, want := range cases {
		if got := bucketOf(x, splitters); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", x, got, want)
		}
	}
	if got := bucketOf(5, nil); got != 0 {
		t.Errorf("bucketOf with no splitters = %d, want 0", got)
	}
}

func TestBucketOfDuplicateSplitters(t *testing.T) {
	// Duplicate splitters create empty middle buckets; elements equal to
	// the value land after all duplicates.
	splitters := []uint64{10, 10, 10}
	if got := bucketOf(10, splitters); got != 3 {
		t.Errorf("bucketOf(10) = %d, want 3", got)
	}
	if got := bucketOf(9, splitters); got != 0 {
		t.Errorf("bucketOf(9) = %d, want 0", got)
	}
}

// TestBucketOfCountsSplittersAtOrBelow: on random sorted splitter lists of
// every length up to 40, with repeats, bucketOf counts the splitters at or
// below the key, for keys on, between and beyond them.
func TestBucketOfCountsSplittersAtOrBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 0; n <= 40; n++ {
		splitters := make([]uint64, n)
		for i := range splitters {
			splitters[i] = uint64(rng.Intn(30))
		}
		slices.Sort(splitters)
		for x := uint64(0); x < 32; x++ {
			want := 0
			for _, s := range splitters {
				if s <= x {
					want++
				}
			}
			if got := bucketOf(x, splitters); got != want {
				t.Fatalf("bucketOf(%d, %v) = %d, want %d", x, splitters, got, want)
			}
		}
	}
}

func TestUniformSplitters(t *testing.T) {
	sorted := make([]uint64, 100)
	for i := range sorted {
		sorted[i] = uint64(i)
	}
	sp := uniformSplitters(sorted, 4)
	if len(sp) != 3 {
		t.Fatalf("%d splitters, want 3", len(sp))
	}
	// Quartiles of 0..99 with step 25: elements 24, 49, 74.
	want := []uint64{24, 49, 74}
	for i := range want {
		if sp[i] != want[i] {
			t.Errorf("splitter %d = %d, want %d", i, sp[i], want[i])
		}
	}
	if got := uniformSplitters(nil, 3); len(got) != 2 || got[0] != math.MaxUint64 {
		t.Errorf("empty-sample splitters = %v", got)
	}
	if got := uniformSplitters(sorted, 1); got != nil {
		t.Errorf("single-node splitters = %v, want nil", got)
	}
}

func TestChooseSplittersAllocatesByWorkingSize(t *testing.T) {
	// Two heavy nodes, one with 3× the data: its splitter must sit near
	// the 3/4 quantile of the samples.
	sorted := make([]uint64, 1000)
	for i := range sorted {
		sorted[i] = uint64(i)
	}
	working := [][]uint64{make([]uint64, 750), make([]uint64, 250)}
	sp := chooseSplitters(sorted, 4, 1000, working)
	if len(sp) != 1 {
		t.Fatalf("%d splitters, want 1", len(sp))
	}
	// c_1 = ceil(4·750/1000) = 3 of 4 intervals → splitter at rank 3·250.
	if sp[0] < 600 || sp[0] > 900 {
		t.Errorf("splitter = %d, want near 750", sp[0])
	}
	if got := chooseSplitters(sorted, 4, 1000, working[:1]); got != nil {
		t.Errorf("single heavy node should need no splitters, got %v", got)
	}
	empty := chooseSplitters(nil, 4, 1000, working)
	if len(empty) != 1 || empty[0] != math.MaxUint64 {
		t.Errorf("no-sample splitters = %v", empty)
	}
}

// TestWTSLoadBalance checks the per-node balance statement inside Theorem
// 7's proof: in the regime N ≥ 4|VC|²ln(|VC|N), every heavy node ends up
// with O(N_v) elements (the proof's constant is 20).
func TestWTSLoadBalance(t *testing.T) {
	tr, err := topology.TwoTier([]int{4, 4}, []float64{2, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.NumCompute()
	n := 4 * p * p * 64
	rng := rand.New(rand.NewSource(1))
	keys := dataset.Distinct(rng, n)
	data, err := dataset.SplitUniform(keys, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WTS(tr, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, Reference(data), res); err != nil {
		t.Fatal(err)
	}
	for i, frag := range res.PerNode {
		nv := len(data[i])
		if nv == 0 {
			continue
		}
		if len(frag) > 20*nv {
			t.Errorf("node %d holds %d elements, more than 20·N_v = %d", i, len(frag), 20*nv)
		}
	}
}

// TestWTSSampleVolume checks the round 2-3 bound: the sample count stays
// near ρN = 4|VC|·ln(|VC|N), far below N/|VC| in the theorem regime.
func TestWTSSampleVolume(t *testing.T) {
	tr, _ := topology.UniformStar(4, 1)
	p := tr.NumCompute()
	n := 4 * p * p * 256
	rng := rand.New(rand.NewSource(2))
	keys := dataset.Distinct(rng, n)
	data, _ := dataset.SplitUniform(keys, p)
	res, err := WTS(tr, data, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.NumRounds() < 2 {
		t.Fatal("expected full wTS execution")
	}
	sampleRound := res.Report.Rounds[1]
	expected := 4 * float64(p) * math.Log(float64(p)*float64(n))
	if float64(sampleRound.Elements) > 3*expected {
		t.Errorf("round 2 carried %d samples, expected about %.0f", sampleRound.Elements, expected)
	}
	if sampleRound.Elements == 0 {
		t.Error("no samples at all")
	}
}
