package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Fatalf("Quantile(0.5) = %v, want 5", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileEmpty(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("Quantile(nil) should be NaN")
	}
}

func TestMeanMedianMinMax(t *testing.T) {
	xs := []float64{4, 1, 7, 2}
	if Mean(xs) != 3.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 3 {
		t.Errorf("Median = %v", Median(xs))
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		a, b := r.NormFloat64()*100, r.NormFloat64()*100
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b) && c.At(a) >= 0 && c.At(b) <= 1
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantileInverseProperty(t *testing.T) {
	// For any sample, At(Quantile(q)) >= q (quantile is a generalised
	// inverse of the CDF).
	err := quick.Check(func(raw []float64, qraw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q := float64(qraw) / 255
		c := NewCDF(xs)
		// Interpolating quantiles sit between sample points, so allow the
		// 1/n slack a closest-rank inverse would not need.
		return c.At(c.Quantile(q))+1/float64(len(xs))+1e-12 >= q
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCDFFractionWithin(t *testing.T) {
	c := NewCDF([]float64{0.4, 0.6, 1.0, 1.9, 2.5})
	if got := c.FractionWithin(0.5, 2); got != 0.6 {
		t.Fatalf("FractionWithin(0.5,2) = %v, want 0.6", got)
	}
}

func TestCDFCountAtMost(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.CountAtMost(2.5); got != 2 {
		t.Fatalf("CountAtMost = %d, want 2", got)
	}
}

func TestBinnedPercentiles(t *testing.T) {
	// y = x exactly; every bin's median must be close to its x.
	var xs, ys []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
		ys = append(ys, float64(i))
	}
	bins := BinnedPercentiles(xs, ys, 10)
	if len(bins) == 0 {
		t.Fatal("no bins")
	}
	total := 0
	for _, b := range bins {
		total += b.Count
		if b.Median < b.X/3 || b.Median > b.X*3 {
			t.Errorf("bin at x=%v has median %v", b.X, b.Median)
		}
		if b.P5 > b.P25 || b.P25 > b.Median || b.Median > b.P75 || b.P75 > b.P95 {
			t.Errorf("bin percentiles out of order: %+v", b)
		}
	}
	if total != len(xs) {
		t.Fatalf("bins hold %d samples, want %d", total, len(xs))
	}
}

func TestBinnedPercentilesMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	BinnedPercentiles([]float64{1}, []float64{1, 2}, 4)
}

func TestLogHistogram(t *testing.T) {
	xs := []float64{0.001, 0.01, 0.1, 1, 10, 100, 1000}
	h := NewLogHistogram(xs, 0.001, 1000, 6)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != len(xs) {
		t.Fatalf("histogram holds %d, want %d", total, len(xs))
	}
	if len(h.Edges) != 7 {
		t.Fatalf("edges = %d, want 7", len(h.Edges))
	}
	if !sort.Float64sAreSorted(h.Edges) {
		t.Fatal("edges not sorted")
	}
}
