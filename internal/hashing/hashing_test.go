package hashing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Bijectivity(t *testing.T) {
	// splitmix64 is a bijection; distinct inputs in a sample must not
	// collide.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestHasherDeterminism(t *testing.T) {
	a, b := NewHasher(42), NewHasher(42)
	c := NewHasher(43)
	diff := 0
	for k := uint64(0); k < 1000; k++ {
		if a.Hash(k) != b.Hash(k) {
			t.Fatalf("same seed disagrees at key %d", k)
		}
		if a.Hash(k) != c.Hash(k) {
			diff++
		}
	}
	if diff < 990 {
		t.Errorf("different seeds agree on %d of 1000 keys", 1000-diff)
	}
}

func TestWeightedChooserErrors(t *testing.T) {
	if _, err := NewWeightedChooser(1, nil); err == nil {
		t.Error("expected error for empty weights")
	}
	if _, err := NewWeightedChooser(1, []float64{0, 0}); err == nil {
		t.Error("expected error for all-zero weights")
	}
	if _, err := NewWeightedChooser(1, []float64{1, -1}); err == nil {
		t.Error("expected error for negative weight")
	}
	if _, err := NewWeightedChooser(1, []float64{1, math.Inf(1)}); err == nil {
		t.Error("expected error for infinite weight")
	}
	if _, err := NewWeightedChooser(1, []float64{1, math.NaN()}); err == nil {
		t.Error("expected error for NaN weight")
	}
}

func TestWeightedChooserDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	c, err := NewWeightedChooser(5, weights)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	counts := make([]int, len(weights))
	for k := uint64(0); k < n; k++ {
		counts[c.Choose(k)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.005 {
			t.Errorf("choice %d frequency %v, want %v", i, got, want)
		}
		if math.Abs(c.Weight(i)-want) > 1e-12 {
			t.Errorf("Weight(%d) = %v, want %v", i, c.Weight(i), want)
		}
	}
}

func TestWeightedChooserZeroWeightNeverChosen(t *testing.T) {
	c, err := NewWeightedChooser(8, []float64{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100000; k++ {
		if got := c.Choose(k); got == 0 || got == 2 {
			t.Fatalf("zero-weight choice %d selected for key %d", got, k)
		}
	}
}

func TestWeightedChooserDeterministicAcrossInstances(t *testing.T) {
	w := []float64{3, 1, 4, 1, 5}
	a, _ := NewWeightedChooser(123, w)
	b, _ := NewWeightedChooser(123, w)
	f := func(k uint64) bool { return a.Choose(k) == b.Choose(k) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedChooserSingleChoice(t *testing.T) {
	c, err := NewWeightedChooser(9, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumChoices() != 1 {
		t.Fatalf("NumChoices = %d", c.NumChoices())
	}
	for k := uint64(0); k < 1000; k++ {
		if c.Choose(k) != 0 {
			t.Fatal("single choice not always chosen")
		}
	}
}

func TestWeightedChooserSkew(t *testing.T) {
	// One dominant weight: nearly all keys must land there.
	c, err := NewWeightedChooser(10, []float64{0.001, 1000})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	const n = 100000
	for k := uint64(0); k < n; k++ {
		if c.Choose(k) == 1 {
			hits++
		}
	}
	if float64(hits)/n < 0.9999 {
		t.Errorf("dominant choice frequency %v", float64(hits)/n)
	}
}

// Weight reports the probability of choice i, read back from the alias
// table: its own bucket's share plus the leftovers of every bucket aliased
// to it.
func (c *WeightedChooser) Weight(i int) float64 {
	p := c.prob[i]
	for j, a := range c.alias {
		if j != i && int(a) == i {
			p += 1 - c.prob[j]
		}
	}
	return p / float64(len(c.prob))
}

// NumChoices reports the number of choices.
func (c *WeightedChooser) NumChoices() int { return len(c.prob) }
