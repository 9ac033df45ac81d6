package par

import (
	"cmp"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"topompc/internal/obs"
)

// TestBlocksCoverExactlyOnce checks the static partition: every index is
// visited exactly once, shard ranges are contiguous, and the partition is
// identical across repeated calls.
func TestBlocksCoverExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			p.Blocks("cover", n, func(shard, lo, hi int) {
				if lo > hi || lo < 0 || hi > n {
					t.Errorf("workers=%d n=%d shard %d: bad range [%d,%d)", workers, n, shard, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestForEachAndSum checks the wrappers agree with a serial loop for every
// worker count.
func TestForEachAndSum(t *testing.T) {
	const n = 12345
	want := int64(n) * int64(n-1) / 2
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		var got atomic.Int64
		p.ForEach("sum", n, func(i int) { got.Add(int64(i)) })
		if got.Load() != want {
			t.Fatalf("workers=%d: ForEach sum = %d, want %d", workers, got.Load(), want)
		}
		s := p.Sum("sum", n, func(_, lo, hi int) int64 {
			var acc int64
			for i := lo; i < hi; i++ {
				acc += int64(i)
			}
			return acc
		})
		if s != want {
			t.Fatalf("workers=%d: Sum = %d, want %d", workers, s, want)
		}
	}
}

// TestSortUint64 checks the parallel radix against the standard sort on
// random, constant-lane-heavy, and already-sorted inputs, for worker
// counts on both sides of the serial threshold.
func TestSortUint64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inputs := map[string][]uint64{}
	big := make([]uint64, 300_000)
	for i := range big {
		big[i] = rng.Uint64()
	}
	inputs["random"] = big
	packed := make([]uint64, 250_000)
	for i := range packed {
		// Index-packed keys: only the low bytes of each half vary.
		packed[i] = uint64(rng.Intn(1<<20))<<32 | uint64(rng.Intn(1<<20))
	}
	inputs["packed"] = packed
	asc := make([]uint64, 200_000)
	for i := range asc {
		asc[i] = uint64(i)
	}
	inputs["sorted"] = asc
	inputs["small"] = []uint64{3, 1, 2}
	inputs["empty"] = nil

	for name, in := range inputs {
		want := append([]uint64(nil), in...)
		slices.Sort(want)
		for _, workers := range []int{1, 2, 8} {
			p := New(workers)
			got := append([]uint64(nil), in...)
			got, _ = p.SortUint64(got, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("%s workers=%d: sort mismatch", name, workers)
			}
		}
	}
}

// TestSortUint64ReusesScratch checks the scratch buffer round-trips.
func TestSortUint64ReusesScratch(t *testing.T) {
	p := New(4)
	rng := rand.New(rand.NewSource(6))
	a := make([]uint64, 200_000)
	tmp := make([]uint64, len(a))
	for round := 0; round < 3; round++ {
		for i := range a {
			a[i] = rng.Uint64()
		}
		var sorted []uint64
		sorted, tmp = p.SortUint64(a, tmp)
		if !slices.IsSorted(sorted) {
			t.Fatalf("round %d: not sorted", round)
		}
		a = sorted
	}
}

// TestInstrumentation checks the par.* metrics and the per-worker lanes:
// a fork records its shard count, and shard spans land on worker lanes.
func TestInstrumentation(t *testing.T) {
	tr := obs.NewTrace()
	reg := obs.NewRegistry()
	p := New(4)
	p.Instrument(tr, reg)
	p.ForEach("probe", 100, func(i int) {})
	snap := reg.Snapshot()
	if snap["par.shards"] != 4 {
		t.Fatalf("par.shards = %v, want 4", snap["par.shards"])
	}
	if snap["par.forks"] != 1 {
		t.Fatalf("par.forks = %v, want 1", snap["par.forks"])
	}
	spans := 0
	for _, e := range tr.Events() {
		if e.Cat == "par.shard" {
			spans++
		}
	}
	if spans != 4 {
		t.Fatalf("recorded %d shard spans, want 4", spans)
	}
}

// TestUninstrumentedNoAllocs pins the disabled-path cost: a single-worker
// fork of a prebuilt body performs no allocation (the inline-serial path
// never reaches the goroutine machinery).
func TestUninstrumentedNoAllocs(t *testing.T) {
	p := New(1)
	fn := func(shard, lo, hi int) {}
	allocs := testing.AllocsPerRun(100, func() {
		p.Blocks("quiet", 64, fn)
	})
	if allocs != 0 {
		t.Fatalf("single-worker Blocks allocated %.1f/op, want 0", allocs)
	}
}

// TestSortsMatchStandardSort is the differential table of both radix sorts
// against slices.Sort: lengths on either side of the insertion-sort cutoff
// (64) and of the fork threshold (two shards need 2·32768 keys), on key
// shapes that exercise the lane skipping — no lane varies, every lane
// varies, and only the last pass (the top byte) runs.
func TestSortsMatchStandardSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shapes := []struct {
		name string
		key  func(i, n int) uint64
	}{
		{"random", func(int, int) uint64 { return rng.Uint64() }},
		{"all-equal", func(int, int) uint64 { return 0xdeadbeefcafe }},
		{"descending", func(i, n int) uint64 { return uint64(n-i) * 0x0101010101 }},
		{"top-byte", func(int, int) uint64 { return uint64(rng.Intn(256))<<56 | 0x00aabbccddeeff11 }},
	}
	for _, n := range []int{0, 1, 63, 64, 65, 32767, 65536} {
		for _, sh := range shapes {
			in := make([]uint64, n)
			for i := range in {
				in[i] = sh.key(i, n)
			}
			want := slices.Clone(in)
			slices.Sort(want)
			if got, _ := SerialSortUint64(slices.Clone(in), nil); !slices.Equal(got, want) {
				t.Errorf("SerialSortUint64 %s n=%d: mismatch", sh.name, n)
			}
			for _, workers := range []int{1, 2, 8} {
				if got, _ := New(workers).SortUint64(slices.Clone(in), nil); !slices.Equal(got, want) {
					t.Errorf("SortUint64 %s n=%d workers=%d: mismatch", sh.name, n, workers)
				}
			}
		}
	}
}

// TestSetKernelsMatchMapReference is a seeded property loop over the set
// kernels: SortUnique must return the ascending distinct keys of its input
// and IntersectSorted the ascending common keys of two such sets, as a map
// computes them, at every worker count. The scratch buffer and the two key
// buffers are carried from iteration to iteration the way intersect.finish
// carries them from home to home, and the in-place form (dst = a[:0]) is
// checked against the appending one.
func TestSetKernelsMatchMapReference(t *testing.T) {
	setOf := func(keys []uint64) map[uint64]bool {
		m := make(map[uint64]bool, len(keys))
		for _, k := range keys {
			m[k] = true
		}
		return m
	}
	ascending := func(m map[uint64]bool) []uint64 {
		out := make([]uint64, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		rng := rand.New(rand.NewSource(int64(100 + workers)))
		var a, b, tmp []uint64
		for iter := 0; iter < 100; iter++ {
			// A small domain forces repeats and overlap; every tenth
			// iteration is large enough to fork, and some sides are empty.
			dom := 1 + rng.Intn(5000)
			na, nb := rng.Intn(400), rng.Intn(400)
			if iter%10 == 9 {
				dom, na, nb = 1<<17, 70_000+rng.Intn(10_000), 70_000+rng.Intn(10_000)
			}
			a, b = a[:0], b[:0]
			for i := 0; i < na; i++ {
				a = append(a, uint64(rng.Intn(dom))<<uint(8*rng.Intn(7)))
			}
			for i := 0; i < nb; i++ {
				b = append(b, uint64(rng.Intn(dom))<<uint(8*rng.Intn(7)))
			}
			inA, inB := setOf(a), setOf(b)
			a, tmp = p.SortUnique(a, tmp)
			b, tmp = p.SortUnique(b, tmp)
			if !slices.Equal(a, ascending(inA)) || !slices.Equal(b, ascending(inB)) {
				t.Fatalf("workers=%d iter %d: SortUnique differs from the map's key set", workers, iter)
			}
			for k := range inA {
				if !inB[k] {
					delete(inA, k)
				}
			}
			want := ascending(inA)
			if got := IntersectSorted(nil, a, b); !slices.Equal(got, want) {
				t.Fatalf("workers=%d iter %d: IntersectSorted has %d keys, map reference %d", workers, iter, len(got), len(want))
			}
			if got := IntersectSorted(a[:0], a, b); !slices.Equal(got, want) {
				t.Fatalf("workers=%d iter %d: in-place IntersectSorted differs", workers, iter)
			}
		}
	}
}

// TestSortPairs is the differential table of the pair sort against
// slices.SortStableFunc on (key, input position) pairs: lengths on either
// side of the insertion-sort cutoff and one long enough for many-key
// buckets, on key shapes that run every lane, only the low one, only the
// top one, none (all keys equal), and the lanes of a single odd key. The
// carried lane is the input position, so equal keys out of input order —
// what a scatter that walks its input backwards produces — fail the
// comparison; keys with few distinct values make such ties the common case.
func TestSortPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	shapes := []struct {
		name string
		key  func(i, n int) uint64
	}{
		{"spread", func(int, int) uint64 { return rng.Uint64() >> uint(rng.Intn(64)) }},
		{"low-byte", func(int, int) uint64 { return uint64(rng.Intn(7)) }},
		{"top-lane", func(int, int) uint64 { return uint64(rng.Intn(5))<<56 | 0x00aabbccddeeff11 }},
		{"all-equal", func(int, int) uint64 { return 0xdeadbeefcafe }},
		{"all-equal-but-one", func(i, n int) uint64 {
			if i == n/2 {
				return 0x0102030405060708
			}
			return 0xdeadbeefcafe
		}},
		{"descending", func(i, n int) uint64 { return uint64(n-i) / 3 * 0x0101010101 }},
	}
	type pair struct{ k, v uint64 }
	var tk, tv []uint64 // carried across cases like a shard's scratch
	for _, n := range []int{0, 1, 63, 64, 65, 70_000} {
		for _, sh := range shapes {
			k, v := make([]uint64, n), make([]uint64, n)
			want := make([]pair, n)
			for i := range k {
				k[i], v[i] = sh.key(i, n), uint64(i)
				want[i] = pair{k[i], v[i]}
			}
			slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
			var sk, sv []uint64
			sk, sv, tk, tv = SortPairs(k, v, tk, tv)
			if len(sk) != n || len(sv) != n {
				t.Fatalf("%s n=%d: sorted lanes have %d/%d pairs", sh.name, n, len(sk), len(sv))
			}
			for i, w := range want {
				if sk[i] != w.k || sv[i] != w.v {
					t.Errorf("%s n=%d: pair %d is (%#x, %d), want (%#x, %d)", sh.name, n, i, sk[i], sv[i], w.k, w.v)
					break
				}
			}
		}
	}
}

// TestLayoutAndFirstSeen is the differential table of the counting-pass
// layout against a map-and-append oracle, in bucket order (Layout alone) and
// in first-seen order (FirstSeen, then Layout): fragment lengths 0, 1 and
// many on bucket shapes where every row shares one bucket, no two rows
// share one, most buckets stay empty, and there is only one bucket to pick.
// The rows are their own fragment positions, so a layout that is not stable
// fails the comparison.
func TestLayoutAndFirstSeen(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	shapes := []struct {
		name   string
		n      func(rows int) int
		bucket func(j, n int) int32
	}{
		{"one-bucket", func(int) int { return 5 }, func(int, int) int32 { return 3 }},
		{"all-distinct", func(rows int) int { return rows + 1 }, func(j, n int) int32 { return int32(n - 1 - j) }},
		{"empty-buckets", func(int) int { return 1000 }, func(int, int) int32 { return int32(7 * rng.Intn(9)) }},
		{"n=1", func(int) int { return 1 }, func(int, int) int32 { return 0 }},
	}
	// place writes row j (its own position) where pos says and cuts the
	// buffer at off.
	place := func(pos, off []int32) [][]int {
		buf := make([]int, len(pos))
		for j, at := range pos {
			buf[at] = j
		}
		out := make([][]int, len(off)-1)
		for b := range out {
			out[b] = buf[off[b]:off[b+1]]
		}
		return out
	}
	for _, rows := range []int{0, 1, 5000} {
		for _, sh := range shapes {
			n := sh.n(rows)
			bucket := make([]int32, rows)
			byBucket := make(map[int32][]int)
			var seen []int32 // bucket ids in order of first appearance
			for j := range bucket {
				bucket[j] = sh.bucket(j, n)
				if _, ok := byBucket[bucket[j]]; !ok {
					seen = append(seen, bucket[j])
				}
				byBucket[bucket[j]] = append(byBucket[bucket[j]], j)
			}

			got := place(Layout(slices.Clone(bucket), n))
			if len(got) != n {
				t.Fatalf("%s rows=%d: %d buckets laid out, want %d", sh.name, rows, len(got), n)
			}
			for b, rowsOf := range got {
				if !slices.Equal(rowsOf, byBucket[int32(b)]) {
					t.Errorf("%s rows=%d: bucket %d holds rows %v, want %v", sh.name, rows, b, rowsOf, byBucket[int32(b)])
					break
				}
			}

			first := FirstSeen(bucket, n)
			if !slices.Equal(first, seen) {
				t.Fatalf("%s rows=%d: first-seen ids %v, want %v", sh.name, rows, first, seen)
			}
			for g, rowsOf := range place(Layout(bucket, len(first))) {
				if !slices.Equal(rowsOf, byBucket[seen[g]]) {
					t.Errorf("%s rows=%d: group %d holds rows %v, want %v", sh.name, rows, g, rowsOf, byBucket[seen[g]])
					break
				}
			}
		}
	}
}

// TestBesideOverlapsAndJoins: with more than one worker side runs while run
// does — run here cannot finish until side has started — and Beside returns
// only after side has finished, also when run fails: side is held back until
// run has returned its error, and what it writes after that must be visible,
// without a race, to the caller.
func TestBesideOverlapsAndJoins(t *testing.T) {
	for _, workers := range []int{2, 8} {
		started := make(chan struct{})
		got, err := Beside(workers, func() (int, error) {
			<-started
			return 7, nil
		}, func() { close(started) })
		if got != 7 || err != nil {
			t.Fatalf("workers=%d: Beside = %d, %v", workers, got, err)
		}

		failed := errors.New("protocol failed")
		returned := make(chan struct{})
		finished := false
		_, err = Beside(workers, func() (int, error) {
			defer close(returned)
			return 0, failed
		}, func() {
			<-returned
			for i := 0; i < 100; i++ {
				runtime.Gosched()
			}
			finished = true
		})
		if err != failed {
			t.Fatalf("workers=%d: err = %v, want run's", workers, err)
		}
		if !finished {
			t.Fatalf("workers=%d: Beside returned run's error before side had finished", workers)
		}
	}
}

// TestBesideOneWorkerRunsInTurn: with one worker everything happens on the
// caller's goroutine, run first, and a failed run skips side.
func TestBesideOneWorkerRunsInTurn(t *testing.T) {
	var order []string
	if _, err := Beside(1, func() (int, error) {
		order = append(order, "run")
		return 0, nil
	}, func() { order = append(order, "side") }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []string{"run", "side"}) {
		t.Fatalf("order = %v, want run then side", order)
	}
	failed := errors.New("protocol failed")
	if _, err := Beside(1, func() (int, error) { return 0, failed }, func() { t.Error("side ran after a failed run") }); err != failed {
		t.Fatalf("err = %v, want run's", err)
	}
}

// TestBesidePanics: a panic in side reaches a recover on the caller's
// goroutine with its value, at every worker count and whether run succeeds or
// fails, and a panic in run waits for side before it propagates.
func TestBesidePanics(t *testing.T) {
	caught := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	for _, workers := range []int{1, 2} {
		for _, runErr := range []error{nil, errors.New("protocol failed")} {
			if workers == 1 && runErr != nil {
				continue // side is skipped
			}
			ran := false
			v := caught(func() {
				Beside(workers, func() (int, error) {
					ran = true
					return 0, runErr
				}, func() { panic("reference blew up") })
			})
			if v != "reference blew up" || !ran {
				t.Errorf("workers=%d runErr=%v: recovered %v, run ran: %v", workers, runErr, v, ran)
			}
		}
	}
	returned := make(chan struct{})
	finished := false
	v := caught(func() {
		Beside(2, func() (int, error) {
			defer close(returned)
			panic("engine misuse")
		}, func() {
			<-returned
			finished = true
		})
	})
	if v != "engine misuse" || !finished {
		t.Errorf("recovered %v, side finished before the panic propagated: %v", v, finished)
	}
}
