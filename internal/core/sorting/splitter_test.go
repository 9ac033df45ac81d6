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

// splitterCase is one row of the splitter tables: chooseSplitters over the
// ascending samples sorted, p destinations' worth of fine intervals and the
// per-destination interval counts.
type splitterCase struct {
	name   string
	sorted []uint64
	p      int64
	counts []int64
	want   []uint64
}

func ascendingSamples(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

func checkSplitters(t *testing.T, cases []splitterCase) {
	t.Helper()
	for _, tc := range cases {
		if got := chooseSplitters(tc.sorted, tc.p, tc.counts); !slices.Equal(got, tc.want) {
			t.Errorf("%s: splitters = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestUniformSplitters: unit counts reproduce TeraSort's uniform quantiles
// (the i·⌈s/p⌉-th smallest sample); one node needs no splitter; with no
// samples every splitter is MaxUint64, and a cut past the last sample is too.
func TestUniformSplitters(t *testing.T) {
	max := uint64(math.MaxUint64)
	checkSplitters(t, []splitterCase{
		{"unit counts are the uniform quartiles", ascendingSamples(100), 4, []int64{1, 1, 1, 1}, []uint64{24, 49, 74}},
		{"unit counts, step rounds up", ascendingSamples(10), 4, []int64{1, 1, 1, 1}, []uint64{2, 5, 8}},
		{"unit counts, last cut past the samples", ascendingSamples(9), 4, []int64{1, 1, 1, 1}, []uint64{2, 5, max}},
		{"one node", ascendingSamples(100), 1, []int64{1}, nil},
		{"no samples", nil, 3, []int64{1, 1, 1}, []uint64{max, max}},
	})
}

// TestChooseSplittersAllocatesByWorkingSize: wTS's counts
// c_j = ⌈|VC|·M_j/N⌉ hand a heavy node with 3/4 of the working data 3 of
// the 4 fine intervals; one destination needs no splitter; with no samples,
// or a cut past the last sample, the splitter is MaxUint64.
func TestChooseSplittersAllocatesByWorkingSize(t *testing.T) {
	max := uint64(math.MaxUint64)
	checkSplitters(t, []splitterCase{
		{"working sizes 750 and 250 of 1000", ascendingSamples(1000), 4, []int64{3, 1}, []uint64{749}},
		{"one destination", ascendingSamples(100), 4, []int64{4}, nil},
		{"no samples", nil, 4, []int64{3, 1}, []uint64{max}},
		{"weighted cut past the last sample", ascendingSamples(5), 4, []int64{3, 1}, []uint64{max}},
	})
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
