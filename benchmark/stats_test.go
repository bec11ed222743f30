package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN, so a metric without samples cannot pass for measured")
	}
}

func TestWindowMedian(t *testing.T) {
	// Three windows with medians 1, 100 and 2: one slow window must not
	// set the metric.
	var xs []float64
	for _, v := range []float64{1, 100, 2} {
		for i := 0; i < 10; i++ {
			xs = append(xs, v)
		}
	}
	if got := windowMedian(xs, 0.5); !near(got, 2) {
		t.Errorf("windowMedian = %v, want 2 (the median of the window medians 1, 100, 2)", got)
	}
	if got := windowMedian([]float64{7, 9}, 0.5); !near(got, 8) {
		t.Errorf("windowMedian of fewer samples than windows = %v, want the plain median 8", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 4) {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
