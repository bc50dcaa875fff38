// Package failure implements the correlated failure models the paper builds
// its second fundamental problem on (§2.2, refs [25]–[27]): machine failures
// whose inter-arrival times follow heavy-tailed distributions
// (time-correlation) and which strike groups of spatially related machines
// at once (space-correlation). It also provides availability analysis.
package failure

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mcs/internal/stats"
)

// Event is one failure occurrence: at time At, the listed machines fail and
// recover after their respective repair durations.
type Event struct {
	At       time.Duration
	Machines []int
	Repair   time.Duration
}

// Model parameterizes failure generation for a cluster of N machines.
type Model struct {
	// MTBFSeconds draws inter-arrival times of failure events (seconds).
	// Weibull with shape < 1 reproduces the bursty, autocorrelated failure
	// arrivals of [27]; Exponential gives the independent baseline.
	MTBFSeconds stats.Dist
	// RepairSeconds draws the repair (unavailability) duration per event.
	RepairSeconds stats.Dist
	// GroupSize draws the number of machines hit per failure event;
	// Deterministic{1} gives independent single-machine failures, larger
	// values produce space-correlated bursts ([26]).
	GroupSize stats.Dist
	// SameRackBias is the probability that a multi-machine event is
	// confined to one rack (given a rack map); otherwise victims are
	// drawn cluster-wide.
	SameRackBias float64
}

// Validate checks that all component distributions are present and the rack
// bias is a probability. Each violation names the missing or offending field,
// so callers that assemble models from configuration documents can surface
// "which field, in which section" instead of a bare complaint.
func (m *Model) Validate() error {
	if m.MTBFSeconds == nil {
		return fmt.Errorf("failure: model missing the MTBF distribution (field mtbf)")
	}
	if m.RepairSeconds == nil {
		return fmt.Errorf("failure: model missing the repair distribution (field repair)")
	}
	if m.GroupSize == nil {
		return fmt.Errorf("failure: model missing the group-size distribution (field groupSize)")
	}
	if m.SameRackBias < 0 || m.SameRackBias > 1 {
		return fmt.Errorf("failure: rack bias %v out of [0,1] (field rackBias)", m.SameRackBias)
	}
	return nil
}

// IndependentModel returns a baseline model: exponential failure
// inter-arrivals with the given per-cluster MTBF, single-machine scope.
func IndependentModel(mtbf, repair time.Duration) *Model {
	return &Model{
		MTBFSeconds:   stats.Exponential{Rate: 1 / mtbf.Seconds()},
		RepairSeconds: stats.Exponential{Rate: 1 / repair.Seconds()},
		GroupSize:     stats.Deterministic{Value: 1},
	}
}

// CorrelatedModel returns a model with the same expected machine-downtime
// budget as IndependentModel(mtbf/meanGroup, repair) but with Weibull
// (shape<1, bursty) arrivals and group failures of mean size meanGroup —
// i.e. equal raw failure mass, correlated in time and space.
func CorrelatedModel(mtbf, repair time.Duration, meanGroup float64) *Model {
	// Mean of Weibull(k, λ) is λ·Γ(1+1/k); solve λ for the target mean.
	// Events arrive meanGroup× less often so machine-failures/hour match
	// the independent baseline.
	const shape = 0.6
	targetMean := mtbf.Seconds() * meanGroup
	w := stats.Weibull{K: shape, Lambda: 1}
	lambda := targetMean / w.Mean()
	return &Model{
		MTBFSeconds:   stats.Weibull{K: shape, Lambda: lambda},
		RepairSeconds: stats.Exponential{Rate: 1 / repair.Seconds()},
		GroupSize:     stats.Truncate{D: stats.Normal{Mu: meanGroup, Sigma: meanGroup / 2}, Lo: 1, Hi: 4 * meanGroup},
		SameRackBias:  0.8,
	}
}

// Generate produces the failure events over [0, horizon) for a cluster of n
// machines. racks maps machine index → rack name; it may be nil, disabling
// the same-rack bias.
func (m *Model) Generate(n int, horizon time.Duration, racks []string, r *rand.Rand) ([]Event, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("failure: cluster size %d", n)
	}
	byRack := make(map[string][]int)
	var rackNames []string
	if racks != nil {
		for i, rk := range racks {
			if _, ok := byRack[rk]; !ok {
				rackNames = append(rackNames, rk)
			}
			byRack[rk] = append(byRack[rk], i)
		}
	}
	var events []Event
	var clock time.Duration
	for {
		gap := m.MTBFSeconds.Sample(r)
		if gap < 0.001 {
			gap = 0.001
		}
		clock += time.Duration(gap * float64(time.Second))
		if clock >= horizon {
			break
		}
		size := int(m.GroupSize.Sample(r))
		if size < 1 {
			size = 1
		}
		if size > n {
			size = n
		}
		var pool []int
		if len(rackNames) > 0 && size > 1 && r.Float64() < m.SameRackBias {
			pool = byRack[rackNames[r.Intn(len(rackNames))]]
		}
		victims := pick(n, size, pool, r)
		repair := m.RepairSeconds.Sample(r)
		if repair < 1 {
			repair = 1
		}
		events = append(events, Event{
			At:       clock,
			Machines: victims,
			Repair:   time.Duration(repair * float64(time.Second)),
		})
	}
	return events, nil
}

// pick selects size distinct machine indices, preferring pool when provided.
func pick(n, size int, pool []int, r *rand.Rand) []int {
	chosen := make(map[int]bool, size)
	out := make([]int, 0, size)
	// Draw from the pool first (same-rack burst), then cluster-wide.
	for _, src := range [][]int{pool, nil} {
		for len(out) < size {
			var idx int
			if src != nil {
				if len(out) >= len(src) {
					break // pool exhausted
				}
				idx = src[r.Intn(len(src))]
			} else {
				idx = r.Intn(n)
			}
			if chosen[idx] {
				continue
			}
			chosen[idx] = true
			out = append(out, idx)
		}
		if len(out) >= size {
			break
		}
	}
	sort.Ints(out)
	return out
}

// Analysis summarizes a failure trace against a cluster of n machines over a
// horizon.
type Analysis struct {
	Events          int
	MachineFailures int
	// MeanGroupSize is the average number of machines per event.
	MeanGroupSize float64
	// Availability is the machine-time fraction the cluster was up.
	Availability float64
	// MaxConcurrentDown is the peak number of simultaneously down machines,
	// the quantity that defeats replication (paper: "correlated failures").
	MaxConcurrentDown int
	// EmpiricalMTBF is the observed mean time between failure events.
	EmpiricalMTBF time.Duration
	// IATBurstiness is the coefficient of variation of event inter-arrival
	// times (1 ≈ Poisson, >1 bursty/time-correlated).
	IATBurstiness float64
}

// Analyze computes availability statistics for events on n machines over
// [0, horizon).
func Analyze(events []Event, n int, horizon time.Duration) Analysis {
	a := Analysis{Events: len(events)}
	if n <= 0 || horizon <= 0 {
		return a
	}
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	var downtime time.Duration
	var gaps []time.Duration
	var last time.Duration
	for i, ev := range events {
		a.MachineFailures += len(ev.Machines)
		for range ev.Machines {
			end := ev.At + ev.Repair
			if end > horizon {
				end = horizon
			}
			if end > ev.At {
				downtime += end - ev.At
			}
			edges = append(edges, edge{ev.At, +1}, edge{end, -1})
		}
		if i > 0 {
			gaps = append(gaps, ev.At-last)
		}
		last = ev.At
	}
	if len(events) > 0 {
		a.MeanGroupSize = float64(a.MachineFailures) / float64(len(events))
		a.EmpiricalMTBF = last / time.Duration(maxInt(1, len(events)-1))
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta > edges[j].delta // repairs after failures at same instant
	})
	cur := 0
	for _, e := range edges {
		cur += e.delta
		if cur > a.MaxConcurrentDown {
			a.MaxConcurrentDown = cur
		}
	}
	total := horizon * time.Duration(n)
	if total > 0 {
		a.Availability = 1 - float64(downtime)/float64(total)
	}
	if len(gaps) >= 2 {
		a.IATBurstiness = workloadBurstiness(gaps)
	}
	return a
}

// WindowedAvailability splits [0, horizon) into consecutive windows of the
// given width (the last window may be shorter) and returns the machine-time
// availability inside each — the series an availability SLO is evaluated
// against: a window whose value falls below the target is one SLO violation.
func WindowedAvailability(events []Event, n int, horizon, window time.Duration) []float64 {
	if n <= 0 || horizon <= 0 || window <= 0 {
		return nil
	}
	count := int((horizon + window - 1) / window)
	downtime := make([]time.Duration, count)
	for _, ev := range events {
		for range ev.Machines {
			start := ev.At
			end := ev.At + ev.Repair
			if end > horizon {
				end = horizon
			}
			for w := int(start / window); w < count; w++ {
				wStart := time.Duration(w) * window
				wEnd := wStart + window
				if wEnd > horizon {
					wEnd = horizon
				}
				if start >= wEnd {
					break
				}
				lo, hi := start, end
				if lo < wStart {
					lo = wStart
				}
				if hi > wEnd {
					hi = wEnd
				}
				if hi <= lo {
					break
				}
				downtime[w] += hi - lo
			}
		}
	}
	avail := make([]float64, count)
	for w := range avail {
		wStart := time.Duration(w) * window
		wEnd := wStart + window
		if wEnd > horizon {
			wEnd = horizon
		}
		total := time.Duration(n) * (wEnd - wStart)
		if total <= 0 {
			avail[w] = 1
			continue
		}
		avail[w] = 1 - float64(downtime[w])/float64(total)
	}
	return avail
}

func workloadBurstiness(gaps []time.Duration) float64 {
	xs := make([]float64, len(gaps))
	for i, g := range gaps {
		xs[i] = g.Seconds()
	}
	mean := stats.Mean(xs)
	if mean == 0 {
		return 0
	}
	return stats.Std(xs) / mean
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
