// Package stats implements the statistical machinery every figure in the
// paper is built from: empirical CDFs, quantiles, histograms with log-spaced
// bins, and "binned scatter" series (median plus 5/25/75/95th percentiles per
// predicted-value bin, the presentation used by Figures 4, 7 and 10).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted computes the quantile of an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Mean returns the arithmetic mean of xs, NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs (which it copies).
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of elements <= x, so search for the first element > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// CountAtMost returns the number of samples <= x (the "cumulative count"
// y-axis used by Figures 3, 6 and 7).
func (c *CDF) CountAtMost(x float64) int {
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return i
}

// Quantile returns the q-th quantile of the sample.
func (c *CDF) Quantile(q float64) float64 { return quantileSorted(c.sorted, q) }

// FractionWithin returns the fraction of samples in [lo, hi].
func (c *CDF) FractionWithin(lo, hi float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	loIdx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] >= lo })
	hiIdx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > hi })
	return float64(hiIdx-loIdx) / float64(len(c.sorted))
}

// PercentileBin is one bin of a binned scatter plot: the representative x
// value, the number of samples in the bin, and the 5/25/50/75/95th
// percentiles of the y values that fell in the bin.
type PercentileBin struct {
	X      float64 // representative x (geometric mean of bin edges)
	Count  int
	P5     float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
}

// BinnedPercentiles groups the (x, y) samples into nBins log-spaced bins by
// x and returns, for each non-empty bin, the percentile summary of the y
// values. This is the exact presentation of Figures 4 and 10 ("binned
// scatter-plot ... median and percentiles of the sample points that fall in
// the respective bin").
func BinnedPercentiles(xs, ys []float64, nBins int) []PercentileBin {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: BinnedPercentiles length mismatch %d != %d", len(xs), len(ys)))
	}
	if len(xs) == 0 || nBins <= 0 {
		return nil
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x <= 0 {
			continue // log bins need positive x
		}
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
	}
	if math.IsInf(minX, 1) || minX == maxX {
		// Degenerate: everything in one bin.
		b := summarizeBin(Mean(xs), ys)
		return []PercentileBin{b}
	}
	logMin, logMax := math.Log(minX), math.Log(maxX)
	width := (logMax - logMin) / float64(nBins)
	binned := make([][]float64, nBins)
	for i, x := range xs {
		if x <= 0 {
			continue
		}
		idx := int((math.Log(x) - logMin) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= nBins {
			idx = nBins - 1
		}
		binned[idx] = append(binned[idx], ys[i])
	}
	var out []PercentileBin
	for i, yvals := range binned {
		if len(yvals) == 0 {
			continue
		}
		center := math.Exp(logMin + width*(float64(i)+0.5))
		out = append(out, summarizeBin(center, yvals))
	}
	return out
}

func summarizeBin(x float64, ys []float64) PercentileBin {
	sorted := append([]float64(nil), ys...)
	sort.Float64s(sorted)
	return PercentileBin{
		X:      x,
		Count:  len(ys),
		P5:     quantileSorted(sorted, 0.05),
		P25:    quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.50),
		P75:    quantileSorted(sorted, 0.75),
		P95:    quantileSorted(sorted, 0.95),
	}
}

// Histogram counts samples into nBins log-spaced bins across [min, max].
// Build one with NewLogHistogram (batch) or NewEmptyLogHistogram (then feed
// it incrementally with Observe); the two produce byte-identical counts for
// the same samples because they share the binning arithmetic.
type Histogram struct {
	Edges  []float64 // len nBins+1
	Counts []int     // len nBins
	// logLo/width cache the binning transform so Observe recomputes
	// nothing; recomputing them from Edges would not be bit-exact
	// (Exp(Log(lo)) can be a ulp off lo), so they are set only by the
	// constructors.
	logLo float64
	width float64
}

// NewLogHistogram builds a log-spaced histogram of xs over [lo, hi].
// Samples outside the range are clamped into the first/last bin.
func NewLogHistogram(xs []float64, lo, hi float64, nBins int) *Histogram {
	h := NewEmptyLogHistogram(lo, hi, nBins)
	for _, x := range xs {
		h.Observe(x)
	}
	return h
}

// NewEmptyLogHistogram builds a zero-count log-spaced histogram over
// [lo, hi] with nBins bins, ready for incremental Observe calls. It is the
// streaming twin of NewLogHistogram: the observability registry feeds one
// sample per lookup instead of batching a slice.
func NewEmptyLogHistogram(lo, hi float64, nBins int) *Histogram {
	if lo <= 0 || hi <= lo || nBins <= 0 {
		panic("stats: NewLogHistogram requires 0 < lo < hi and nBins > 0")
	}
	h := &Histogram{
		Edges:  make([]float64, nBins+1),
		Counts: make([]int, nBins),
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	for i := 0; i <= nBins; i++ {
		h.Edges[i] = math.Exp(logLo + (logHi-logLo)*float64(i)/float64(nBins))
	}
	h.logLo = logLo
	h.width = (logHi - logLo) / float64(nBins)
	return h
}

// Observe adds one sample, clamping out-of-range values into the first/last
// bin exactly like NewLogHistogram. It never allocates, so it is safe on
// simulation hot paths. Only histograms built by the constructors may be
// observed into: a hand-assembled Histogram lacks the cached binning
// transform.
func (h *Histogram) Observe(x float64) {
	if x <= 0 {
		h.Counts[0]++
		return
	}
	idx := int((math.Log(x) - h.logLo) / h.width)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
}

// Total returns the number of samples observed into the histogram.
func (h *Histogram) Total() int {
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	return total
}

// Quantile estimates the q-th quantile from the binned counts, locating the
// bin where the cumulative count crosses q·total and interpolating
// geometrically (linearly in log space) inside it. Resolution is therefore
// one bin width; NaN for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Total()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	cum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			lo, hi := h.Edges[i], h.Edges[i+1]
			return lo * math.Pow(hi/lo, frac)
		}
		cum += float64(c)
	}
	return h.Edges[len(h.Edges)-1]
}
