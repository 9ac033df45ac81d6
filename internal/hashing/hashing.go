// Package hashing provides the shared randomized hash functions used by the
// topology-aware protocols.
//
// The set-intersection algorithms of the paper (Algorithms 1 and 2) hash
// each element a to a compute node v with a probability proportional to the
// data v holds: Pr[h(a) = v] = N_v / Σ_u N_u. Every node must evaluate the
// same h, so h is derived deterministically from a shared seed; the weighted
// choice uses Vose's alias method for O(1) evaluation.
package hashing

import (
	"fmt"
	"math"
)

// Mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit mixing
// function used to derive hash values from keys.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hasher derives pseudo-random 64-bit values from keys under a fixed seed.
// Two Hashers with the same seed agree on every key, which is how all
// compute nodes share one random hash function without communicating.
type Hasher struct {
	seed uint64
}

// NewHasher returns a Hasher for the given seed.
func NewHasher(seed uint64) Hasher { return Hasher{seed: Mix64(seed ^ 0x6a09e667f3bcc909)} }

// Hash returns the hash of key as a uint64.
func (h Hasher) Hash(key uint64) uint64 { return Mix64(key ^ h.seed) }

// WeightedChooser maps keys to choices 0..n-1 with fixed non-uniform
// probabilities, deterministically under a shared seed. It implements
// Vose's alias method, so Choose runs in O(1) after O(n) setup.
type WeightedChooser struct {
	h     Hasher
	prob  []float64 // alias threshold per bucket
	alias []int32
}

// NewWeightedChooser builds a chooser over len(weights) choices where
// choice i is selected with probability weights[i] / Σ weights. Weights
// must be non-negative, finite, and not all zero.
func NewWeightedChooser(seed uint64, weights []float64) (*WeightedChooser, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("hashing: no choices")
	}
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("hashing: invalid weight %v at %d", w, i)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("hashing: all weights are zero")
	}
	c := &WeightedChooser{
		h:     NewHasher(seed),
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	scaled := make([]float64, n)
	var small, large []int32
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		c.prob[s] = scaled[s]
		c.alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		c.prob[i] = 1
		c.alias[i] = i
	}
	for _, i := range small {
		c.prob[i] = 1
		c.alias[i] = i
	}
	return c, nil
}

// Choose maps key to a choice index; identical across all Choosers built
// with the same seed and weights.
func (c *WeightedChooser) Choose(key uint64) int {
	h := c.h.Hash(key)
	n := uint64(len(c.prob))
	bucket := int(h % n)
	frac := float64((h/n)&((1<<53)-1)) / float64(1<<53)
	if frac < c.prob[bucket] {
		return bucket
	}
	return int(c.alias[bucket])
}
