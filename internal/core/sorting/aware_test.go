package sorting

import (
	"math/rand"
	"testing"

	"topompc/internal/dataset"
	"topompc/internal/topology"
)

func TestCapacitySortCorrectAcrossTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	topos := map[string]*topology.Tree{}
	if st, err := topology.UniformStar(5, 2); err == nil {
		topos["star"] = st
	}
	if tt, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16); err == nil {
		topos["twotier-skew"] = tt
	}
	if ct, err := topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4); err == nil {
		topos["caterpillar"] = ct
	}
	for name, tr := range topos {
		t.Run(name, func(t *testing.T) {
			for _, place := range []struct {
				name string
				fn   func([]uint64, int) (dataset.Placement, error)
			}{
				{"uniform", uniformPlace},
				{"zipf", func(k []uint64, p int) (dataset.Placement, error) {
					return dataset.SplitZipf(rand.New(rand.NewSource(3)), k, p, 1.2)
				}},
			} {
				data := sortInput(t, rng, tr, 3000, place.fn)
				for vname, run := range map[string]func(*topology.Tree, dataset.Placement, uint64) (*Result, error){
					"aware": func(tr *topology.Tree, d dataset.Placement, s uint64) (*Result, error) {
						return CapacitySort(tr, d, s)
					},
					"flat": func(tr *topology.Tree, d dataset.Placement, s uint64) (*Result, error) {
						return CapacitySortFlat(tr, d, s)
					},
				} {
					res, err := run(tr, data, 42)
					if err != nil {
						t.Fatalf("%s/%s: %v", place.name, vname, err)
					}
					if err := Verify(tr, Reference(data), res); err != nil {
						t.Fatalf("%s/%s: %v", place.name, vname, err)
					}
				}
			}
		})
	}
}

// TestCapacitySortShrinksWeakRanges: on the skewed two-tier tree the
// slow-rack nodes must end up owning far less of the key space than the
// fast-rack nodes.
func TestCapacitySortShrinksWeakRanges(t *testing.T) {
	tr, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	data := sortInput(t, rng, tr, 8000, uniformPlace)
	res, err := CapacitySort(tr, data, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, Reference(data), res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "sort-aware" {
		t.Fatalf("strategy = %s, want sort-aware", res.Strategy)
	}
	var fast, slow int
	for i := 0; i < 4; i++ {
		fast += len(res.PerNode[i])
	}
	for i := 4; i < 8; i++ {
		slow += len(res.PerNode[i])
	}
	if slow*4 >= fast {
		t.Errorf("slow rack received %d keys, fast rack %d; want slow ≪ fast", slow, fast)
	}
}

// TestCapacitySortFlatMatchesOnSymmetric: uniform capacities make the
// aware protocol coincide with its flat counterpart.
func TestCapacitySortFlatMatchesOnSymmetric(t *testing.T) {
	tr, _ := topology.UniformStar(6, 2)
	rng := rand.New(rand.NewSource(23))
	data := sortInput(t, rng, tr, 3000, uniformPlace)
	aware, err := CapacitySort(tr, data, 9)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := CapacitySortFlat(tr, data, 9)
	if err != nil {
		t.Fatal(err)
	}
	if aware.Report.TotalCost() != flat.Report.TotalCost() {
		t.Errorf("symmetric star: aware cost %.3f != flat cost %.3f",
			aware.Report.TotalCost(), flat.Report.TotalCost())
	}
}

// TestCapacitySortBeatsFlatOnSkewedUplink: with the input concentrated on
// the fast rack, uniform key ranges flood the weak uplink while capacity
// ranges keep the data on the strong side.
func TestCapacitySortBeatsFlatOnSkewedUplink(t *testing.T) {
	tr, err := topology.TwoTier([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	data := sortInput(t, rng, tr, 8000, func(k []uint64, p int) (dataset.Placement, error) {
		return dataset.SplitOneHeavy(k, p, 0, 0.8)
	})
	aware, err := CapacitySort(tr, data, 5)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := CapacitySortFlat(tr, data, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"aware": aware, "flat": flat} {
		if err := Verify(tr, Reference(data), res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if aware.Report.TotalCost() >= flat.Report.TotalCost() {
		t.Errorf("aware cost %.1f should beat flat cost %.1f",
			aware.Report.TotalCost(), flat.Report.TotalCost())
	}
}

func TestCapacitySortEmptyAndTiny(t *testing.T) {
	tr, _ := topology.UniformStar(3, 1)
	empty := dataset.Placement{nil, nil, nil}
	res, err := CapacitySort(tr, empty, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, Reference(empty), res); err != nil {
		t.Fatal(err)
	}
	tiny := dataset.Placement{{5}, nil, {9, 2}}
	res, err = CapacitySort(tr, tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tr, Reference(tiny), res); err != nil {
		t.Fatal(err)
	}
}
