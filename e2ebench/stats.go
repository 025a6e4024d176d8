package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail latency may be reported at, from
// the highest down. tailPercentile picks the highest one that still leaves
// at least minBeyond samples above it, so a tail figure never rests on a
// handful of outliers.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is the number of samples a reported percentile must leave above
// it.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder with at least
// minBeyond of n samples beyond it under the nearest-rank rule. Samples too
// small for even the median (very short runs) fall back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rankIndex(p, n)-1 >= minBeyond {
			return p
		}
	}
	return 50
}

// rankIndex is the nearest-rank index (0-based) of percentile p among n
// sorted samples.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-th percentile of xs, which it
// sorts in place; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankIndex(p, len(xs))]
}

// durPercentile is percentile over durations, in the given unit.
func durPercentile(ds []time.Duration, p float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return percentile(xs, p)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), which is how the repeatability spread is
// judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles: j = i*(n+1)//4 clamped to [1, n-1], then
		// linear interpolation with exact integer weights.
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
