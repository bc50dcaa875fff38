package stats

import (
	"math"
	"sort"
	"time"
)

// Point is one observation in a time series.
type Point struct {
	T time.Duration
	V float64
}

// TimeSeries is an append-ordered sequence of (time, value) observations.
// It backs demand/supply curves for elasticity analysis, utilization traces,
// and monitoring histories for autoscalers.
type TimeSeries struct {
	points []Point
}

// NewTimeSeries returns an empty series.
func NewTimeSeries() *TimeSeries { return &TimeSeries{} }

// Add appends an observation. Observations should be added in non-decreasing
// time order; out-of-order points are inserted at the right position.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	n := len(ts.points)
	if n == 0 || ts.points[n-1].T <= t {
		ts.points = append(ts.points, Point{T: t, V: v})
		return
	}
	idx := sort.Search(n, func(i int) bool { return ts.points[i].T > t })
	ts.points = append(ts.points, Point{})
	copy(ts.points[idx+1:], ts.points[idx:])
	ts.points[idx] = Point{T: t, V: v}
}

// Len returns the number of observations.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// Points returns a copy of the observations.
func (ts *TimeSeries) Points() []Point {
	return append([]Point(nil), ts.points...)
}

// At returns the step-function value at time t: the value of the most recent
// observation with T ≤ t, or 0 before the first observation.
func (ts *TimeSeries) At(t time.Duration) float64 {
	idx := sort.Search(len(ts.points), func(i int) bool { return ts.points[i].T > t })
	if idx == 0 {
		return 0
	}
	return ts.points[idx-1].V
}

// Values returns the observation values in time order.
func (ts *TimeSeries) Values() []float64 {
	vs := make([]float64, len(ts.points))
	for i, p := range ts.points {
		vs[i] = p.V
	}
	return vs
}

// Integral returns the time integral of the step function over [from, to],
// in value·seconds.
func (ts *TimeSeries) Integral(from, to time.Duration) float64 {
	if to <= from || len(ts.points) == 0 {
		return 0
	}
	total := 0.0
	cur := ts.At(from)
	last := from
	for _, p := range ts.points {
		if p.T <= from {
			continue
		}
		if p.T >= to {
			break
		}
		total += cur * (p.T - last).Seconds()
		cur = p.V
		last = p.T
	}
	total += cur * (to - last).Seconds()
	return total
}

// TimeAverage returns the time-weighted mean of the step function over
// [from, to].
func (ts *TimeSeries) TimeAverage(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	return ts.Integral(from, to) / (to - from).Seconds()
}

// Resample converts the series into a fixed-interval series over [from, to)
// by sampling the step function at each interval start. It is used to align
// demand and supply curves before computing elasticity metrics.
func (ts *TimeSeries) Resample(from, to, interval time.Duration) []float64 {
	if interval <= 0 || to <= from {
		return nil
	}
	n := int((to - from) / interval)
	out := make([]float64, 0, n)
	for t := from; t < to; t += interval {
		out = append(out, ts.At(t))
	}
	return out
}

// End returns the time of the last observation, or 0 if empty.
func (ts *TimeSeries) End() time.Duration {
	if len(ts.points) == 0 {
		return 0
	}
	return ts.points[len(ts.points)-1].T
}

// MaxValue returns the largest observed value, or 0 if empty.
func (ts *TimeSeries) MaxValue() float64 {
	maxV := math.Inf(-1)
	if len(ts.points) == 0 {
		return 0
	}
	for _, p := range ts.points {
		if p.V > maxV {
			maxV = p.V
		}
	}
	return maxV
}
