package main

import (
	"math"
	"slices"
)

// median of xs (mean of the two middle values for an even count); NaN when
// xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean of the strictly positive entries of xs; ok is false when there
// are none.
func geomean(xs []float64) (g float64, ok bool) {
	var logs float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logs += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return math.Exp(logs / float64(n)), true
}

// tail reports the highest percentile of xs that still has at least ten
// samples beyond it, with its value; ok is false with fewer than eleven
// samples.
func tail(xs []float64) (percentile, value float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := n - 11 // ten samples lie strictly beyond index k
	return 100 * float64(k+1) / float64(n), s[k], true
}
