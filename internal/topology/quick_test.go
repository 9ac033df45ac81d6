package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSpecRoundTripQuick property-tests JSON serialization over random
// trees: shape, bandwidths and rendering survive a round trip.
func TestSpecRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := Random(rng, 1+rng.Intn(8), 1+rng.Intn(5), 0.25, 16)
		if err != nil {
			return false
		}
		data, err := tr.MarshalJSON()
		if err != nil {
			return false
		}
		back, err := ParseJSON(data)
		if err != nil {
			return false
		}
		if back.NumNodes() != tr.NumNodes() || back.NumEdges() != tr.NumEdges() ||
			back.NumCompute() != tr.NumCompute() {
			return false
		}
		for e := EdgeID(0); int(e) < tr.NumEdges(); e++ {
			if back.Bandwidth(e) != tr.Bandwidth(e) {
				return false
			}
			a1, b1 := tr.Endpoints(e)
			a2, b2 := back.Endpoints(e)
			if a1 != a2 || b1 != b2 {
				return false
			}
		}
		return back.String() == tr.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCutsQuick property-tests the load-cut computation: Below+Above is the
// total, and the min never exceeds half the total.
func TestCutsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng)
		loads := randomLoads(rng, tr)
		total := loads.Total()
		for _, c := range tr.Cuts(loads) {
			if c.Below+c.Above != total {
				return false
			}
			if c.Min() > total/2 {
				return false
			}
			if c.Below < 0 || c.Above < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestOrientRerootInvariance: G† depends only on loads and topology, not on
// the internal root used for bookkeeping — re-building the same tree with
// nodes in a different insertion order must produce the same parent
// relation (up to the node-name mapping).
func TestOrientRerootInvariance(t *testing.T) {
	// Build the same shape twice with different insertion orders.
	b1 := NewBuilder()
	w1 := b1.Router("w")
	a1 := b1.Compute("a")
	c1 := b1.Compute("b")
	b1.Link(a1, w1, 1)
	b1.Link(c1, w1, 1)
	t1 := b1.MustBuild()

	b2 := NewBuilder()
	a2 := b2.Compute("a")
	c2 := b2.Compute("b")
	w2 := b2.Router("w")
	b2.Link(a2, w2, 1)
	b2.Link(c2, w2, 1)
	t2 := b2.MustBuild()

	loads1, _ := t1.ComputeLoads([]int64{30, 70})
	loads2, _ := t2.ComputeLoads([]int64{30, 70})
	d1 := Orient(t1, loads1)
	d2 := Orient(t2, loads2)
	if t1.Name(d1.Root()) != t2.Name(d2.Root()) {
		t.Errorf("G† root depends on insertion order: %s vs %s",
			t1.Name(d1.Root()), t2.Name(d2.Root()))
	}
}
