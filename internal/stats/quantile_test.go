package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// quantileReference is Quantile as it was before selection, kept verbatim
// as the differential oracle: copy, sort.Float64s, then interpolate between
// the order statistics at floor and ceil of q·(n−1).
func quantileReference(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sameFloat reports whether a and b are the same value bit for bit, with
// every NaN equal to every other (NaN payloads are not part of the
// contract).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestQuantileMatchesSortReference: selection yields bit for bit what the
// full sort gives, across sizes, tie-heavy and infinite data, samples
// holding NaN, and quantiles at and between order statistics — and leaves
// its input untouched. (Data avoids mixing −0 and +0: they compare equal,
// so neither a sort nor a selection fixes which of them lands at a rank.)
func TestQuantileMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	gens := []struct {
		name string
		draw func(n int) []float64
	}{
		{"uniform", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.NormFloat64() * 1e3
			}
			return xs
		}},
		{"tie-heavy", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.Intn(5) - 2)
			}
			return xs
		}},
		{"sorted-runs", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i % 37)
			}
			return xs
		}},
		{"infinities", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				switch r.Intn(6) {
				case 0:
					xs[i] = math.Inf(1)
				case 1:
					xs[i] = math.Inf(-1)
				default:
					xs[i] = r.ExpFloat64()
				}
			}
			return xs
		}},
		{"with-nan", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Float64()
				if r.Intn(7) == 0 {
					xs[i] = math.NaN()
				}
			}
			xs[r.Intn(n)] = math.NaN()
			return xs
		}},
	}
	qs := []float64{0, 1e-9, 0.25, 0.5, 0.95, 0.99, 1, -0.5, 1.5}
	for _, g := range gens {
		for trial := 0; trial < 60; trial++ {
			n := 1 + r.Intn(2000)
			if trial < 8 {
				n = trial + 1
			}
			xs := g.draw(n)
			orig := slices.Clone(xs)
			for _, q := range append(qs, r.Float64(), r.Float64()) {
				got, want := Quantile(xs, q), quantileReference(xs, q)
				if !sameFloat(got, want) {
					t.Fatalf("%s n=%d q=%v: Quantile = %v (%#x), sort reference = %v (%#x)",
						g.name, n, q, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				for i := range xs {
					if !sameFloat(xs[i], orig[i]) {
						t.Fatalf("%s n=%d q=%v: Quantile modified xs[%d]", g.name, n, q, i)
					}
				}
			}
		}
	}
}

// TestQuantileSortedMatchesReference: the sorted-sample path shared by
// Summarize and ECDF.Quantile interpolates exactly as before.
func TestQuantileSortedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+r.Intn(300))
		for i := range xs {
			xs[i] = r.ExpFloat64()
		}
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1, r.Float64()} {
			if got, want := quantileSorted(sorted, q), quantileReference(xs, q); !sameFloat(got, want) {
				t.Fatalf("n=%d q=%v: quantileSorted = %v, reference = %v", len(xs), q, got, want)
			}
		}
	}
}

// TestQuantileNaNQ: a NaN quantile is NaN, not an index panic.
func TestQuantileNaNQ(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Quantile(xs, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(xs, NaN) = %v, want NaN", got)
	}
	if got := NewECDF(xs).Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("ECDF.Quantile(NaN) = %v, want NaN", got)
	}
	if got := Quantile(nil, math.NaN()); got != 0 {
		t.Errorf("Quantile(nil, NaN) = %v, want 0 for an empty sample", got)
	}
}

// TestSelectKthAdversarial: inputs that defeat median-of-three pivots
// still select correctly within the partition budget's fallback.
func TestSelectKthAdversarial(t *testing.T) {
	for _, n := range []int{17, 100, 1000, 4096} {
		organ := make([]float64, n) // organ pipe: rises then falls
		for i := range organ {
			organ[i] = float64(min(i, n-1-i))
		}
		for _, k := range []int{0, n / 2, n - 1} {
			for name, base := range map[string][]float64{"organ": organ, "equal": make([]float64, n)} {
				xs := slices.Clone(base)
				selectKth(xs, k)
				sorted := slices.Clone(base)
				sort.Float64s(sorted)
				if xs[k] != sorted[k] {
					t.Fatalf("%s n=%d k=%d: selected %v, want %v", name, n, k, xs[k], sorted[k])
				}
				for i, x := range xs {
					if (i < k && x > xs[k]) || (i > k && x < xs[k]) {
						t.Fatalf("%s n=%d k=%d: xs[%d]=%v on the wrong side of %v", name, n, k, i, x, xs[k])
					}
				}
			}
		}
	}
}

func BenchmarkQuantile(b *testing.B) {
	for _, n := range []int{50, 500, 300_000} {
		xs := make([]float64, n)
		r := rand.New(rand.NewSource(1))
		for i := range xs {
			xs[i] = r.ExpFloat64()
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Quantile(xs, 0.95)
			}
		})
	}
}
