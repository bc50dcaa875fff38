// Package stats provides the statistical substrate of the MCS toolkit:
// descriptive statistics, empirical distributions, time series, and the
// random-variate distributions used by workload, failure, and mobility
// models. The paper (§3.3) names "quantitative research ... statistical
// modeling of workloads, failures" as a pillar of the MCS methodology; this
// package is that pillar.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Online accumulates count, mean, variance (Welford's algorithm), min, and
// max in a single pass without storing samples. The zero value is ready to
// use.
type Online struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add incorporates one sample.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// Count returns the number of samples seen.
func (o *Online) Count() uint64 { return o.n }

// Mean returns the sample mean, or 0 with no samples.
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance, or 0 with fewer than 2 samples.
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest sample, or 0 with no samples.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest sample, or 0 with no samples.
func (o *Online) Max() float64 { return o.max }

// CV returns the coefficient of variation (std/mean), or 0 when the mean is 0.
func (o *Online) CV() float64 {
	if o.mean == 0 {
		return 0
	}
	return o.Std() / math.Abs(o.mean)
}

// Summary holds one-shot descriptive statistics of a sample.
type Summary struct {
	Count                   int
	Mean, Std, CV           float64
	Min, Max                float64
	P25, P50, P90, P95, P99 float64
}

// Summarize computes descriptive statistics of xs. It does not modify xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var o Online
	for _, x := range sorted {
		o.Add(x)
	}
	return Summary{
		Count: len(sorted),
		Mean:  o.Mean(),
		Std:   o.Std(),
		CV:    o.CV(),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P25:   quantileSorted(sorted, 0.25),
		P50:   quantileSorted(sorted, 0.50),
		P90:   quantileSorted(sorted, 0.90),
		P95:   quantileSorted(sorted, 0.95),
		P99:   quantileSorted(sorted, 0.99),
	}
}

// String renders the summary as a compact single line for reports.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		s.Count, s.Mean, s.Std, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies xs and takes the
// quantile of the copy with QuantileInPlace. It returns 0 for an empty xs
// and NaN for a NaN q.
func Quantile(xs []float64, q float64) float64 {
	return QuantileInPlace(append([]float64(nil), xs...), q)
}

// QuantileInPlace is Quantile on xs itself, for a caller done with its
// order: it places the order statistics it needs by selection rather than
// a full sort, reordering xs, and returns the value the sorted sample
// gives.
func QuantileInPlace(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if slices.ContainsFunc(xs, math.IsNaN) {
		sort.Float64s(xs) // keeps the sort's placement of NaNs (first)
		return quantileSorted(xs, q)
	}
	lo, frac := quantileRank(len(xs), q)
	selectKth(xs, lo)
	if frac == 0 {
		return xs[lo]
	}
	// The next order statistic is the smallest value right of lo.
	return xs[lo]*(1-frac) + slices.Min(xs[lo+1:])*frac
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	lo, frac := quantileRank(n, q)
	if frac == 0 {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// quantileRank locates the q-quantile of n > 0 sorted values: between the
// order statistics at lo and lo+1, frac of the way to the latter. frac is
// 0 when the quantile is an order statistic itself. q must not be NaN.
func quantileRank(n int, q float64) (lo int, frac float64) {
	if q <= 0 {
		return 0, 0
	}
	if q >= 1 {
		return n - 1, 0
	}
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	return lo, pos - float64(lo)
}

// selectKth partially orders xs, which holds no NaN, so that xs[k] is its
// k-th smallest value, no value before k is larger and no value after k is
// smaller: a deterministic quickselect with median-of-three pivots. Small
// ranges, and ranges still unresolved after 2·log₂ n partitions, are
// sorted outright, which bounds the worst case at O(n log n).
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); hi > lo; budget-- {
		if hi-lo < 16 || budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		// Hoare partition around the median: afterwards xs[lo..j] ≤ p,
		// xs[i..hi] ≥ p and everything strictly between j and i equals p.
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for p < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 {
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	return o.Std()
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// of xs under the Student-t distribution: t(0.975, n-1) · s/√n. It returns
// 0 with fewer than two samples, where the interval is undefined. Used by
// repetition-aware experiment campaigns to report mean ± CI instead of
// bare extrema.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return tCritical95(n-1) * Std(xs) / math.Sqrt(float64(n))
}

// CI95Pooled returns the half-width of the 95% confidence interval for
// one group's mean when xs consists of `groups` equal contiguous groups of
// replicates: t(0.975, n−groups) · s_w/√(n/groups), where s_w² is the
// pooled within-group variance (the one-way-ANOVA residual). Pooling
// variance across groups — but never their systematic differences —
// is what a repetition campaign over a parameter grid quotes: the
// uncertainty of each grid point's mean, not the spread of the grid.
// With groups == 1 it reduces exactly to CI95. It returns 0 when xs does
// not split evenly into groups or has fewer than two replicates per group.
func CI95Pooled(xs []float64, groups int) float64 {
	n := len(xs)
	if groups < 1 || n == 0 || n%groups != 0 {
		return 0
	}
	per := n / groups
	if per < 2 {
		return 0
	}
	var ssw float64
	for g := 0; g < groups; g++ {
		grp := xs[g*per : (g+1)*per]
		m := Mean(grp)
		for _, x := range grp {
			ssw += (x - m) * (x - m)
		}
	}
	df := n - groups
	sw := math.Sqrt(ssw / float64(df))
	return tCritical95(df) * sw / math.Sqrt(float64(per))
}

// t975 holds two-sided 95% Student-t critical values for df 1..30.
var t975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical95 returns the two-sided 95% critical value of Student's t with
// df degrees of freedom (tabulated to df 30, a few anchors beyond, then
// the normal limit 1.96).
func tCritical95(df int) float64 {
	switch {
	case df < 1:
		return 0
	case df <= len(t975):
		return t975[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// ECDF is an empirical cumulative distribution function over a fixed sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied and sorted).
func NewECDF(xs []float64) *ECDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// At returns P(X ≤ x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the q-quantile of the sample.
func (e *ECDF) Quantile(q float64) float64 { return quantileSorted(e.sorted, q) }

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// Histogram counts samples into uniform bins over [lo, hi). Samples outside
// the range land in the first or last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []uint64
	total  uint64
}

// NewHistogram returns a histogram with bins uniform bins spanning [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() uint64 { return h.total }

// Quantile returns an approximate q-quantile assuming uniformity within bins.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := q * float64(h.total)
	cum := 0.0
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.Lo + (float64(i)+frac)*width
		}
		cum = next
	}
	return h.Hi
}

// Autocorrelation returns the lag-k sample autocorrelation of xs, the
// instrument used to detect time-correlated behaviour (e.g. failure bursts,
// paper §2.2).
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || lag >= n {
		return 0
	}
	mean := Mean(xs)
	var num, den float64
	for i := 0; i < n-lag; i++ {
		num += (xs[i] - mean) * (xs[i+lag] - mean)
	}
	for _, x := range xs {
		den += (x - mean) * (x - mean)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// LinearFit holds the result of an ordinary-least-squares line fit.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLine fits y = Slope*x + Intercept by least squares. Used by the Reg
// autoscaler and trend analyses.
func FitLine(xs, ys []float64) LinearFit {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return LinearFit{}
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Intercept: my}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	}
	return fit
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }
