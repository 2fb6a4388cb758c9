package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is a number")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints — the driver's rule.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10.5, 10.9, 10.7, 11.1, 10.6, 12.5, 10.5, 10.8, 11.6, 11.4}, 10.575, 11.45},
		{[]float64{7.71, 8.04, 8.61, 8.96, 9.06, 9.07, 9.73}, 8.04, 9.07},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if spread([]float64{4}) != 0 {
		t.Error("a single value has a spread")
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 500, 90: 900, 99: 990} {
		got, err := percentile(sorted, p)
		if err != nil || got != want {
			t.Errorf("p%v of 1..1000 = %v, %v; want %v", p, got, err, want)
		}
	}
	// p99 of 1000 leaves exactly ten beyond it: the edge that still passes.
	if _, err := percentile(sorted[:999], 99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it and was reported")
	}
	_, err := percentile(sorted, 99.9)
	if err == nil {
		t.Fatal("p99.9 of 1000 samples leaves one beyond it and was reported")
	}
	if !strings.Contains(err.Error(), "1000 samples") {
		t.Errorf("refusal %q does not name the sample count", err)
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(sorted, p); err == nil {
			t.Errorf("percentile accepted p = %v", p)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples was reported")
	}
}
