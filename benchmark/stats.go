package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the two nearest ranks. xs need not be sorted; an
// empty sample has no percentile and yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// windows is how many consecutive equal slices a phase is cut into; a
// metric is the median of its value in each. A slow second or two (a
// collection, a neighbour's burst on the host) then moves the metric
// less than it would move a figure taken over the whole phase.
const windows = 8

// windowMedian cuts xs, which is in send order, into consecutive
// windows, takes the q-quantile of each and returns the median of those.
func windowMedian(xs []float64, q float64) float64 {
	if len(xs) < windows {
		return percentile(xs, q)
	}
	per := make([]float64, windows)
	for w := range per {
		per[w] = percentile(xs[w*len(xs)/windows:(w+1)*len(xs)/windows], q)
	}
	return median(per)
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (its default "exclusive"
// method), because that is what the acceptance check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		lo = min(max(lo, 1), len(s)-1)
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	return at(1), at(2), at(3)
}
