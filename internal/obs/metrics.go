package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a lightweight metrics registry: named counters, gauges, and
// power-of-two histograms. Instruments are resolved once (under a lock)
// and updated with plain atomics, so hot paths — the engine's per-round
// accounting, the contraction loop — record without locks or allocation.
// Every method is nil-safe on the zero receiver chain: a nil *Registry
// hands out nil instruments whose updates are no-ops, which is how the
// disabled path stays free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil counter (whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns a nil histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float value that only SetMax raises.
type Gauge struct{ bits atomic.Uint64 }

// SetMax stores v if it exceeds the current value. No-op on a nil gauge.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reports the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the bucket count of a Histogram: bucket 0 holds values
// below 1, bucket k holds [2^(k-1), 2^k), the last bucket everything
// beyond.
const histBuckets = 63

// Histogram is a power-of-two histogram over non-negative values, with
// exact count, sum, and max. Observe is lock- and allocation-free.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a value to its power-of-two bucket.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	b := math.Ilogb(v) + 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value (negative values clamp to 0). No-op on a nil
// histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v && h.count.Load() > 1 {
			break
		}
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count reports the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observations (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Max reports the largest observation (0 on a nil histogram).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the power-of-two
// buckets, answering with the geometric midpoint of the bucket holding
// the q-th observation. 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	want := int64(math.Ceil(q * float64(total)))
	if want < 1 {
		want = 1
	}
	var seen int64
	for b := 0; b < histBuckets; b++ {
		seen += h.buckets[b].Load()
		if seen >= want {
			if b == 0 {
				return 0.5
			}
			lo := math.Ldexp(1, b-1)
			return lo * math.Sqrt2
		}
	}
	return h.Max()
}

// Snapshot flattens the registry into a sorted-iterable map: counters and
// gauges under their own names, histograms expanded into .count/.sum/
// .mean/.max/.p50 entries. Safe to call while producers update; values
// are individually atomic.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		n := h.Count()
		out[name+".count"] = float64(n)
		out[name+".sum"] = h.Sum()
		out[name+".max"] = h.Max()
		if n > 0 {
			out[name+".mean"] = h.Sum() / float64(n)
			out[name+".p50"] = h.Quantile(0.5)
		}
	}
	return out
}

// SnapshotKeys reports the snapshot's keys in sorted order, for stable
// rendering.
func SnapshotKeys(snap map[string]float64) []string {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
