// Package par is the multicore compute plane of the protocol kernels: a
// deterministic fork-join pool that shards per-home (or per-vertex) local
// work across a fixed goroutine budget with phase barriers.
//
// The paper's machine computes at every node in parallel between exchange
// rounds; the simulator's per-home receipt and relabel loops are the
// equivalent local compute. The pool partitions an index range into at
// most Workers() contiguous static blocks — shard s always owns
// [s·n/shards, (s+1)·n/shards) — so the shard→index mapping is a pure
// function of (n, workers), never of scheduling. Callers keep writes
// home-partitioned (shard s only writes state owned by its indices) and
// reductions merge per-shard results in shard order, which makes every
// result bit-identical across worker counts; the graph determinism grid
// pins that invariant end to end.
//
// Beside is the one fork outside the pool: it runs a task pipeline's host
// work that depends on the input alone (the reference output, the lower
// bound) on one extra goroutine while the protocol drives the pool.
//
// Instrumentation is opt-in via Instrument: each shard runs inside a span
// on its worker's trace lane, and every fork records the shard count and
// the max/mean shard-duration imbalance in the par.* metrics.
// Uninstrumented pools skip the clock entirely.
package par

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"
	"unsafe"

	"topompc/internal/obs"
)

// Pool is a fixed-width fork-join executor. The zero value is not usable;
// construct with New. A Pool is driven by one goroutine at a time (the
// protocol driver); the shards it forks are internal.
type Pool struct {
	workers int
	wg      sync.WaitGroup // the fork in flight; one driver, so one suffices

	tr    obs.Tracer
	lanes []int64 // one trace lane per worker slot
	durs  []int64 // per-shard wall clock of the current fork (ns)

	mShards *obs.Counter   // par.shards: total shards forked
	mForks  *obs.Counter   // par.forks: barriers executed
	mImb    *obs.Histogram // par.imbalance: max/mean shard duration per fork
}

// New returns a pool that forks at most workers shards per call;
// workers <= 0 means GOMAXPROCS.
func New(workers int) *Pool { return &Pool{workers: resolve(workers)} }

// resolve turns a worker budget into a goroutine count: workers <= 0 means
// GOMAXPROCS.
func resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Beside runs run on the calling goroutine and returns what it returns,
// with side run next to it: host work that reads only what run reads, writes
// none of it, and leaves its results in variables the caller reads after
// Beside returns — a task pipeline's reference output and lower bound, which
// are functions of the input alone. When the budget resolves to more than
// one worker, side runs on one second goroutine while run executes; with one
// worker it runs on the caller's goroutine after run, and not at all when run
// fails. Either way side has finished when Beside returns or panics, and a
// panic in side is re-raised, with its value, on the calling goroutine.
func Beside[R any](workers int, run func() (R, error), side func()) (R, error) {
	if resolve(workers) == 1 {
		res, err := run()
		if err == nil {
			side()
		}
		return res, err
	}
	var panicked any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		side()
	}()
	defer func() {
		<-done
		if panicked != nil {
			panic(panicked)
		}
	}()
	return run()
}

// Workers reports the pool's goroutine budget.
func (p *Pool) Workers() int { return p.workers }

// Instrument attaches the flight recorder: per-worker trace lanes for the
// shard spans and the par.* metrics. Either sink may be nil; with both nil
// the call is a no-op and the pool stays timer-free.
func (p *Pool) Instrument(tr obs.Tracer, mx *obs.Registry) {
	if tr != nil {
		p.tr = tr
		p.lanes = make([]int64, p.workers)
		for w := range p.lanes {
			p.lanes[w] = tr.NewTid("par worker " + itoa(w))
		}
	}
	if mx != nil {
		p.mShards = mx.Counter("par.shards")
		p.mForks = mx.Counter("par.forks")
		p.mImb = mx.Histogram("par.imbalance")
	}
	if p.timed() && p.durs == nil {
		p.durs = make([]int64, p.workers)
	}
}

func (p *Pool) timed() bool { return p.tr != nil || p.mImb != nil }

// itoa formats a small non-negative int without strconv (lane names only).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// shardsFor resolves how many shards a range of n items forks into.
func (p *Pool) shardsFor(n int) int {
	s := p.workers
	if s > n {
		s = n
	}
	return s
}

// Blocks partitions [0, n) into contiguous static shards and runs fn once
// per shard, in parallel, returning after all shards complete (the phase
// barrier). Shard s covers [s·n/shards, (s+1)·n/shards); the partition
// depends only on (n, workers). fn must confine its writes to state owned
// by its index range.
func (p *Pool) Blocks(label string, n int, fn func(shard, lo, hi int)) {
	p.blocksN(label, n, p.shardsFor(n), fn)
}

// blocksN is Blocks with an explicit shard count (at most Workers()).
func (p *Pool) blocksN(label string, n, shards int, fn func(shard, lo, hi int)) {
	if n <= 0 || shards <= 0 {
		return
	}
	if shards == 1 {
		p.runShard(label, 0, 0, n, fn)
		p.record(1)
		return
	}
	// The pool-owned barrier and a plain method spawn keep a fork down to
	// the one wrapper each go statement allocates.
	p.wg.Add(shards - 1)
	for s := 1; s < shards; s++ {
		go p.forkShard(label, s, s*n/shards, (s+1)*n/shards, fn)
	}
	p.runShard(label, 0, 0, n/shards, fn)
	p.wg.Wait()
	p.record(shards)
}

// forkShard is runShard on its own goroutine, released to the barrier.
func (p *Pool) forkShard(label string, shard, lo, hi int, fn func(shard, lo, hi int)) {
	defer p.wg.Done()
	p.runShard(label, shard, lo, hi, fn)
}

// runShard executes one shard, timing it and emitting its span when the
// pool is instrumented.
func (p *Pool) runShard(label string, shard, lo, hi int, fn func(shard, lo, hi int)) {
	if !p.timed() {
		fn(shard, lo, hi)
		return
	}
	var sp obs.Span
	if p.tr != nil {
		sp = obs.Begin(p.tr, p.lanes[shard], label, "par.shard")
	}
	t0 := time.Now()
	fn(shard, lo, hi)
	p.durs[shard] = int64(time.Since(t0))
	if p.tr != nil {
		sp.End(map[string]any{"shard": shard, "lo": lo, "hi": hi})
	}
}

// record feeds the per-fork metrics once every shard has completed.
func (p *Pool) record(shards int) {
	if p.mShards == nil {
		return
	}
	p.mShards.Add(int64(shards))
	p.mForks.Inc()
	if p.mImb != nil && shards > 1 {
		var sum, max int64
		for _, d := range p.durs[:shards] {
			sum += d
			if d > max {
				max = d
			}
		}
		if sum > 0 {
			p.mImb.Observe(float64(max) * float64(shards) / float64(sum))
		}
	}
}

// ForEach runs fn for every index in [0, n), sharded as in Blocks.
func (p *Pool) ForEach(label string, n int, fn func(i int)) {
	p.Blocks(label, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Sum runs fn once per shard as in Blocks and adds the per-shard results
// in shard order. Integer addition is associative and the merge order is
// fixed, so the total is identical for every worker count.
func (p *Pool) Sum(label string, n int, fn func(shard, lo, hi int) int64) int64 {
	shards := p.shardsFor(n)
	if shards <= 0 {
		return 0
	}
	var small [64]int64
	res := small[:]
	if shards > len(small) {
		res = make([]int64, shards)
	}
	p.Blocks(label, n, func(shard, lo, hi int) {
		res[shard] = fn(shard, lo, hi)
	})
	res = res[:shards]
	var total int64
	for _, r := range res {
		total += r
	}
	return total
}

// sortSerialThreshold is the keys per shard below which SortUint64 does not
// fork. At two workers the split kernel and SerialSort break even near 2¹⁶
// random keys (≈ 1.5 ms each on a 2-vCPU Xeon @ 2.10 GHz) and the kernel
// wins from ≈ 10⁵ (2.5 against 3.2–4.1 ms at 2¹⁷): below that the extra pass
// and SerialSort's fixed cost per bucket of a few hundred keys outweigh the
// second core.
const sortSerialThreshold = 1 << 15

// SortUint64 sorts a ascending. Below 2·sortSerialThreshold keys, or with one
// worker, it is SerialSort. Above, it splits once by the highest byte that
// varies across the input: one parallel AND/OR reduction finds that byte,
// each shard histograms its contiguous segment, a serial prefix sum over
// (byte, shard) assigns disjoint cursors, and the shards scatter their
// segments into tmp by it. Each of the at most 256 buckets — n/256 keys for
// spread keys, small enough to stay in cache — is then finished by SerialSort
// on its lower byte lanes (lanes constant inside a bucket are skipped) with
// the same range of a as scratch, and copied into a when it ends in tmp. The
// buckets are dealt to shards in contiguous runs balanced by key count. The
// output is the sorted permutation of the input, identical for every worker
// count. Returns the sorted slice and the scratch buffer, which may have
// swapped roles; with cap(tmp) ≥ len(a) it allocates no n-sized buffer,
// only the per-shard counts and the forks.
func (p *Pool) SortUint64(a, tmp []uint64) ([]uint64, []uint64) {
	n := len(a)
	shards := p.shardsFor(n / sortSerialThreshold)
	if shards <= 1 {
		return SerialSort(a, tmp)
	}
	if cap(tmp) < n {
		tmp = make([]uint64, n)
	}
	tmp = tmp[:n]

	// st[s] is shard s's AND/OR pair, then its bucket counts, then its
	// scatter cursors.
	type shardState struct {
		and, or uint64
		at      [256]int
	}
	st := make([]shardState, shards)
	p.blocksN("par sort reduce", n, shards, func(shard, lo, hi int) {
		and, or := ^uint64(0), uint64(0)
		for _, v := range a[lo:hi] {
			and &= v
			or |= v
		}
		st[shard].and, st[shard].or = and, or
	})
	and, or := ^uint64(0), uint64(0)
	for s := range st {
		and &= st[s].and
		or |= st[s].or
	}
	if and == or {
		return a, tmp // every key is equal
	}
	sh := uint(63-bits.LeadingZeros64(and^or)) &^ 7

	p.blocksN("par sort count", n, shards, func(shard, lo, hi int) {
		h := &st[shard].at
		for _, v := range a[lo:hi] {
			h[(v>>sh)&0xff]++
		}
	})
	// Shard s writes its value-b keys from st[s].at[b] on, after every
	// smaller byte and every earlier shard's value-b keys; start[b] is where
	// bucket b begins.
	var start [257]int
	sum := 0
	for b := 0; b < 256; b++ {
		start[b] = sum
		for s := range st {
			c := st[s].at[b]
			st[s].at[b] = sum
			sum += c
		}
	}
	start[256] = n
	p.blocksN("par sort scatter", n, shards, func(shard, lo, hi int) {
		at := &st[shard].at
		for _, v := range a[lo:hi] {
			b := (v >> sh) & 0xff
			tmp[at[b]] = v
			at[b]++
		}
	})

	// Shard s finishes the buckets that begin in its key range
	// [s·n/shards, (s+1)·n/shards).
	p.blocksN("par sort finish", shards, shards, func(shard, _, _ int) {
		lo, hi := shard*n/shards, (shard+1)*n/shards
		for b := 0; b < 256; b++ {
			s, e := start[b], start[b+1]
			if s < lo || s >= hi || s == e {
				continue
			}
			if out, _ := SerialSort(tmp[s:e], a[s:e]); &out[0] != &a[s] {
				copy(a[s:e], out)
			}
		}
	})
	return a, tmp
}

// SerialSort sorts a ascending on the calling goroutine with an LSD byte
// radix, skipping byte lanes that are constant across the slice
// (index-packed keys rarely use more than a few). Keys must be
// non-negative. SortUint64 runs it on inputs below its fork threshold and on
// each bucket after its split, and the sort kernels call it from inside a
// shard, where forking again would break the pool's single-driver rule.
// Returns the sorted slice and the scratch buffer, which may have swapped
// roles.
func SerialSort[K ~int32 | ~uint64](a, tmp []K) ([]K, []K) {
	if len(a) < 64 {
		slices.Sort(a)
		return a, tmp
	}
	if cap(tmp) < len(a) {
		tmp = make([]K, len(a))
	}
	tmp = tmp[:len(a)]
	var hist [8][256]int32
	lanes := int(unsafe.Sizeof(a[0]))
	if lanes == 8 {
		for _, v := range a {
			u := uint64(v)
			hist[0][u&0xff]++
			hist[1][(u>>8)&0xff]++
			hist[2][(u>>16)&0xff]++
			hist[3][(u>>24)&0xff]++
			hist[4][(u>>32)&0xff]++
			hist[5][(u>>40)&0xff]++
			hist[6][(u>>48)&0xff]++
			hist[7][(u>>56)&0xff]++
		}
	} else {
		for _, v := range a {
			u := uint32(v)
			hist[0][u&0xff]++
			hist[1][(u>>8)&0xff]++
			hist[2][(u>>16)&0xff]++
			hist[3][(u>>24)&0xff]++
		}
	}
	src, dst := a, tmp
	for pass := 0; pass < lanes; pass++ {
		sh := uint(pass) * 8
		h := &hist[pass]
		if int(h[(src[0]>>sh)&0xff]) == len(src) {
			continue // constant byte lane
		}
		var off [256]int32
		var sum int32
		for b := 0; b < 256; b++ {
			off[b] = sum
			sum += h[b]
		}
		for _, v := range src {
			b := (v >> sh) & 0xff
			dst[off[b]] = v
			off[b]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// SortUnique sorts a as SortUint64 does and drops repeated keys: a key
// multiset in, the ascending key set out. Returns the set and the scratch
// buffer, which may have swapped roles.
func (p *Pool) SortUnique(a, tmp []uint64) (set, scratch []uint64) {
	a, tmp = p.SortUint64(a, tmp)
	return slices.Compact(a), tmp
}

// IntersectSorted appends to dst the keys present in both a and b, each of
// which must be ascending and free of repeats (SortUnique's output); what it
// appends is ascending and free of repeats too. One merge pass, no
// allocation beyond dst's growth. dst may be a[:0] or b[:0]: the write
// position never passes either read position.
func IntersectSorted(dst, a, b []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			dst = append(dst, x)
			i++
			j++
		}
	}
	return dst
}

// SortPairs sorts the key lane k ascending and carries the lane v along: on
// return (k[i], v[i]) are the input pairs, stable by key, so pairs with equal
// keys keep their input order and sorting by (key, value) is two calls, by
// value and then by key. It runs on the calling goroutine — an LSD byte
// radix that skips the byte lanes constant across k, an insertion sort
// below 64 pairs — so, like SerialSort, it is callable from inside a
// shard. tk and tv are scratch, grown when shorter than k; the sorted lanes
// and the scratch lanes are returned, possibly with swapped roles.
func SortPairs(k, v, tk, tv []uint64) (sk, sv, rk, rv []uint64) {
	n := len(k)
	v = v[:n]
	if n < 64 {
		for i := 1; i < n; i++ {
			ki, vi := k[i], v[i]
			j := i
			for ; j > 0 && k[j-1] > ki; j-- {
				k[j], v[j] = k[j-1], v[j-1]
			}
			k[j], v[j] = ki, vi
		}
		return k, v, tk, tv
	}
	if cap(tk) < n {
		tk = make([]uint64, n)
	}
	if cap(tv) < n {
		tv = make([]uint64, n)
	}
	tk, tv = tk[:n], tv[:n]
	var hist [8][256]int32
	for _, x := range k {
		hist[0][x&0xff]++
		hist[1][(x>>8)&0xff]++
		hist[2][(x>>16)&0xff]++
		hist[3][(x>>24)&0xff]++
		hist[4][(x>>32)&0xff]++
		hist[5][(x>>40)&0xff]++
		hist[6][(x>>48)&0xff]++
		hist[7][(x>>56)&0xff]++
	}
	for pass := 0; pass < 8; pass++ {
		sh := uint(pass) * 8
		h := &hist[pass]
		if int(h[(k[0]>>sh)&0xff]) == n {
			continue // constant byte lane
		}
		var off [256]int32
		var sum int32
		for b := 0; b < 256; b++ {
			off[b] = sum
			sum += h[b]
		}
		for i, x := range k {
			b := (x >> sh) & 0xff
			tk[off[b]], tv[off[b]] = x, v[i]
			off[b]++
		}
		k, v, tk, tv = tk, tv, k, v
	}
	return k, v, tk, tv
}

// Layout is the counting pass behind every partition of a fragment by
// destination: bucket[j] < n is row j's bucket, and on return row j lands at
// pos[j] of a buffer in which bucket b's rows are off[b]:off[b+1], in
// fragment order. It sees bucket ids only; place.Scatter, the one keyed
// scatter, writes the 1- or 2-word rows to pos[j] and sends the buckets,
// and triangle's home-side slab grouping is the other caller. pos reuses
// bucket's storage. Serial, callable from inside a shard.
func Layout(bucket []int32, n int) (pos, off []int32) {
	// Counted two slots up and summed, off[b+1] is where bucket b starts; the
	// position pass advances it to where b ends, which is where b+1 starts.
	off = make([]int32, n+2)
	for _, b := range bucket {
		off[b+2]++
	}
	for b := 0; b < n; b++ {
		off[b+2] += off[b+1]
	}
	for j, b := range bucket {
		bucket[j] = off[b+1]
		off[b+1]++
	}
	return bucket, off[:n+1]
}

// FirstSeen renumbers ids (each below space) in place by order of first
// appearance — the numbering under which Layout's bucket order is the order
// a walk of the fragment meets the ids — and returns the id each new number
// stands for.
func FirstSeen(ids []int32, space int) (first []int32) {
	ordinal := make([]int32, space) // id -> its number + 1, 0 while unseen
	for j, id := range ids {
		if ordinal[id] == 0 {
			first = append(first, id)
			ordinal[id] = int32(len(first))
		}
		ids[j] = ordinal[id] - 1
	}
	return first
}
