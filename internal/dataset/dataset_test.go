package dataset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := Distinct(rng, 50000)
	seen := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			t.Fatal("duplicate key")
		}
		seen[k] = true
	}
}

func TestSequential(t *testing.T) {
	keys := Sequential(5)
	for i, k := range keys {
		if k != uint64(i+1) {
			t.Fatalf("Sequential[%d] = %d", i, k)
		}
	}
}

func TestSetPair(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r, s, err := SetPair(rng, 100, 300, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 100 || len(s) != 300 {
		t.Fatalf("sizes %d/%d", len(r), len(s))
	}
	inR := map[uint64]bool{}
	for _, k := range r {
		if inR[k] {
			t.Fatal("duplicate in R")
		}
		inR[k] = true
	}
	common := 0
	inS := map[uint64]bool{}
	for _, k := range s {
		if inS[k] {
			t.Fatal("duplicate in S")
		}
		inS[k] = true
		if inR[k] {
			common++
		}
	}
	if common != 40 {
		t.Fatalf("overlap = %d, want 40", common)
	}
}

func TestSetPairErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, _, err := SetPair(rng, 10, 10, 11); err == nil {
		t.Error("expected error for overlap > size")
	}
	if _, _, err := SetPair(rng, -1, 10, 0); err == nil {
		t.Error("expected error for negative size")
	}
}

func TestApportionSumsToN(t *testing.T) {
	f := func(n uint16, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		allZero := true
		for i, r := range raw {
			weights[i] = float64(r)
			if r != 0 {
				allZero = false
			}
		}
		if allZero {
			weights[0] = 1
		}
		counts, err := Apportion(int(n), weights)
		if err != nil {
			return false
		}
		sum := 0
		for i, c := range counts {
			if c < 0 {
				return false
			}
			if weights[i] == 0 && c != 0 {
				return false
			}
			sum += c
		}
		return sum == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestApportionProportionality(t *testing.T) {
	counts, err := Apportion(1000, []float64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 250 || counts[1] != 250 || counts[2] != 500 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestApportionErrors(t *testing.T) {
	if _, err := Apportion(10, nil); err == nil {
		t.Error("expected error for no buckets")
	}
	if _, err := Apportion(10, []float64{0, 0}); err == nil {
		t.Error("expected error for zero weights")
	}
	if _, err := Apportion(10, []float64{-1, 2}); err == nil {
		t.Error("expected error for negative weight")
	}
}

func TestSplitCountsPartition(t *testing.T) {
	keys := Sequential(10)
	p, err := SplitCounts(keys, []int{3, 0, 7})
	if err != nil {
		t.Fatal(err)
	}
	if p.Total() != 10 {
		t.Fatalf("total = %d", p.Total())
	}
	sizes := p.Sizes()
	if sizes[0] != 3 || sizes[1] != 0 || sizes[2] != 7 {
		t.Fatalf("sizes = %v", sizes)
	}
	flat := p.Flatten()
	for i, k := range flat {
		if k != keys[i] {
			t.Fatal("flatten does not preserve order")
		}
	}
	if _, err := SplitCounts(keys, []int{5, 5, 5}); err == nil {
		t.Error("expected error for count mismatch")
	}
	if _, err := SplitCounts(keys, []int{-1, 11}); err == nil {
		t.Error("expected error for negative count")
	}
}

func TestSplitUniform(t *testing.T) {
	p, err := SplitUniform(Sequential(10), 4)
	if err != nil {
		t.Fatal(err)
	}
	sizes := p.Sizes()
	var min, max int64 = 1 << 62, 0
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 1 {
		t.Fatalf("uniform split sizes = %v", sizes)
	}
}

func TestSplitZipfSkew(t *testing.T) {
	p, err := SplitZipf(nil, Sequential(10000), 8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	sizes := p.Sizes()
	if sizes[0] <= sizes[7]*4 {
		t.Errorf("expected strong skew, got %v", sizes)
	}
	if p.Total() != 10000 {
		t.Errorf("total = %d", p.Total())
	}
}

func TestSplitZipfShuffled(t *testing.T) {
	a, _ := SplitZipf(rand.New(rand.NewSource(5)), Sequential(1000), 6, 1)
	b, _ := SplitZipf(rand.New(rand.NewSource(5)), Sequential(1000), 6, 1)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("same seed produced different shuffles")
		}
	}
}

func TestSplitOneHeavy(t *testing.T) {
	p, err := SplitOneHeavy(Sequential(1000), 5, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sizes := p.Sizes()
	if sizes[2] != 800 {
		t.Errorf("heavy node got %d, want 800", sizes[2])
	}
	for i, s := range sizes {
		if i != 2 && s != 50 {
			t.Errorf("light node %d got %d, want 50", i, s)
		}
	}
	if _, err := SplitOneHeavy(Sequential(10), 3, 5, 0.5); err == nil {
		t.Error("expected error for heavy index out of range")
	}
	if _, err := SplitOneHeavy(Sequential(10), 3, 0, 1.5); err == nil {
		t.Error("expected error for fraction > 1")
	}
}

func TestSplitSingle(t *testing.T) {
	p, err := SplitSingle(Sequential(100), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := p.Sizes()
	for i, s := range sizes {
		want := int64(0)
		if i == 3 {
			want = 100
		}
		if s != want {
			t.Errorf("sizes[%d] = %d, want %d", i, s, want)
		}
	}
}

func TestAdversarialSortPlacement(t *testing.T) {
	sorted := Sequential(10) // ranks 1..10
	p, err := AdversarialSortPlacement(sorted, []int{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved order: 1 3 5 7 9 2 4 6 8 10; first node takes 1 3 5 7.
	want0 := []uint64{1, 3, 5, 7}
	for i, k := range p[0] {
		if k != want0[i] {
			t.Fatalf("node 0 fragment = %v, want %v", p[0], want0)
		}
	}
	want1 := []uint64{9, 2, 4, 6, 8, 10}
	for i, k := range p[1] {
		if k != want1[i] {
			t.Fatalf("node 1 fragment = %v, want %v", p[1], want1)
		}
	}
}

func TestAdversarialPlacementIsPartition(t *testing.T) {
	f := func(nRaw uint8, splitRaw uint8) bool {
		n := int(nRaw)%200 + 2
		split := int(splitRaw) % (n + 1)
		sorted := Sequential(n)
		p, err := AdversarialSortPlacement(sorted, []int{split, n - split})
		if err != nil {
			return false
		}
		flat := p.Flatten()
		sort.Slice(flat, func(i, j int) bool { return flat[i] < flat[j] })
		for i, k := range flat {
			if k != uint64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Sizes reports the per-node fragment sizes N_v.
func (p Placement) Sizes() []int64 {
	s := make([]int64, len(p))
	for i, frag := range p {
		s[i] = int64(len(frag))
	}
	return s
}
