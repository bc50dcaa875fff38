package scenario

// The sweepable failure-injection overlay (paper §2.2: heavy-tailed,
// space-correlated machine failures are the second fundamental problem of
// massivizing computer systems). A "failures" section in the common document
// envelope declares a correlated-failure model by name — MTBF, repair, and
// group-size distributions, plus a rack bias — and the overlay draws one
// deterministic failure timeline from the document seed via internal/failure.
// Each adapter applies the timeline's unavailability windows to its own
// capacity model (datacenter machines, federation site machines, faas
// instance hosts, gaming zone servers) and merges the overlay's
// availability / downtime / SLO metrics into its Result envelope. Because
// the section rides the document schema, every parameter of the model is a
// JSON-pointer sweep axis ("/failures/mtbf/mean") for free, distributable
// through internal/dist with byte-identical merged reports.

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mcs/internal/failure"
	"mcs/internal/stats"
)

// DistJSON is the JSON form of a probability distribution, resolved by name.
// Time-valued distributions (mtbf, repair) are in seconds; the group-size
// distribution is in capacity units (machines, hosts, servers).
//
//	{"dist": "exponential", "mean": 3600}
//	{"dist": "weibull", "shape": 0.6, "mean": 3600}     // scale solved from mean
//	{"dist": "weibull", "shape": 0.6, "scale": 2000}
//	{"dist": "lognormal", "mean": 600, "sigma": 0.8}    // mu solved from mean
//	{"dist": "pareto", "scale": 300, "shape": 1.5}      // xm, alpha
//	{"dist": "uniform", "lo": 60, "hi": 600}
//	{"dist": "normal", "mean": 4, "sigma": 2}
//	{"dist": "deterministic", "value": 1}
type DistJSON struct {
	Dist  string  `json:"dist"`
	Mean  float64 `json:"mean"`
	Shape float64 `json:"shape"`
	Scale float64 `json:"scale"`
	Sigma float64 `json:"sigma"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Value float64 `json:"value"`
}

// build resolves the spec to a stats.Dist; ptr is the JSON pointer of the
// section, used to locate errors in the document.
func (d *DistJSON) build(ptr string) (stats.Dist, error) {
	switch d.Dist {
	case "", "exponential", "exp":
		if d.Mean <= 0 {
			return nil, fmt.Errorf("%s: exponential needs mean > 0 (got %v)", ptr, d.Mean)
		}
		return stats.Exponential{Rate: 1 / d.Mean}, nil
	case "weibull":
		k := d.Shape
		if k <= 0 {
			k = 0.6 // the bursty, decreasing-hazard regime of refs [26][27]
		}
		scale := d.Scale
		if scale <= 0 {
			if d.Mean <= 0 {
				return nil, fmt.Errorf("%s: weibull needs scale or mean > 0", ptr)
			}
			scale = d.Mean / stats.Weibull{K: k, Lambda: 1}.Mean()
		}
		return stats.Weibull{K: k, Lambda: scale}, nil
	case "lognormal":
		sigma := d.Sigma
		if sigma <= 0 {
			sigma = 0.6
		}
		if d.Mean <= 0 {
			return nil, fmt.Errorf("%s: lognormal needs mean > 0 (got %v)", ptr, d.Mean)
		}
		// Solve mu so the distribution mean equals the requested mean.
		return stats.LogNormal{Mu: math.Log(d.Mean) - sigma*sigma/2, Sigma: sigma}, nil
	case "pareto":
		if d.Scale <= 0 {
			return nil, fmt.Errorf("%s: pareto needs scale (xm) > 0", ptr)
		}
		alpha := d.Shape
		if alpha <= 0 {
			alpha = 1.5
		}
		return stats.Pareto{Xm: d.Scale, Alpha: alpha}, nil
	case "uniform":
		if d.Hi <= d.Lo {
			return nil, fmt.Errorf("%s: uniform needs lo < hi (got [%v,%v))", ptr, d.Lo, d.Hi)
		}
		return stats.Uniform{Lo: d.Lo, Hi: d.Hi}, nil
	case "normal":
		if d.Mean <= 0 {
			return nil, fmt.Errorf("%s: normal needs mean > 0 (got %v)", ptr, d.Mean)
		}
		sigma := d.Sigma
		if sigma < 0 {
			return nil, fmt.Errorf("%s: normal needs sigma >= 0 (got %v)", ptr, sigma)
		}
		return stats.Truncate{D: stats.Normal{Mu: d.Mean, Sigma: sigma}, Lo: 0, Hi: 0}, nil
	case "deterministic", "const":
		v := d.Value
		if v == 0 {
			v = d.Mean
		}
		if v <= 0 {
			return nil, fmt.Errorf("%s: deterministic needs value > 0", ptr)
		}
		return stats.Deterministic{Value: v}, nil
	default:
		return nil, fmt.Errorf("%s: unknown distribution %q", ptr, d.Dist)
	}
}

// SLOJSON declares the availability service-level objective the overlay
// scores: the horizon splits into windows of windowSeconds, and every window
// whose capacity-time availability falls below the target counts as one
// violation.
type SLOJSON struct {
	// Availability is the per-window availability target (default 0.99).
	Availability float64 `json:"availability"`
	// WindowSeconds is the SLO evaluation window (default 3600).
	WindowSeconds float64 `json:"windowSeconds"`
}

// FailuresJSON is the "failures" section of the common document envelope.
// Presence enables injection unless "enabled" is explicitly false (keeping
// the on/off switch itself a sweep axis).
type FailuresJSON struct {
	Enabled *bool `json:"enabled"`
	// MTBF draws inter-arrival times of failure events (seconds).
	MTBF *DistJSON `json:"mtbf"`
	// Repair draws the unavailability duration per event (seconds).
	Repair *DistJSON `json:"repair"`
	// GroupSize draws the number of capacity units hit per event.
	GroupSize *DistJSON `json:"groupSize"`
	// RackBias is the probability a multi-unit event is confined to one
	// rack-like group (racks, sites, zones — per-kind semantics).
	RackBias *float64 `json:"rackBias"`
	// Machines overrides the failure-domain size for kinds whose capacity
	// is not countable from the document (faas instance hosts); the
	// cluster-backed kinds ignore it.
	Machines int     `json:"machines"`
	SLO      SLOJSON `json:"slo"`
}

// On reports whether the section requests injection.
func (f *FailuresJSON) On() bool {
	return f != nil && (f.Enabled == nil || *f.Enabled)
}

// FailureOverlay is the parsed, runnable form of a document's "failures"
// section: the correlated-failure model plus the document seed the timeline
// derives from. One overlay serves every kind; adapters obtain timelines
// through Draw/Source and report through Metrics.
type FailureOverlay struct {
	Model *failure.Model
	// SLOAvailability and SLOWindow parameterize SLO scoring.
	SLOAvailability float64
	SLOWindow       time.Duration

	seed     int64
	machines int
}

// FailureOverlay builds the overlay declared by the header's "failures"
// section, or nil when the document carries none (or disables it). Errors
// name the offending field with its JSON pointer; the registry's Configure
// wrapper prefixes the scenario kind.
func (c Common) FailureOverlay() (*FailureOverlay, error) {
	cfg := c.Failures
	if !cfg.On() {
		return nil, nil
	}
	m := &failure.Model{}
	var err error
	if cfg.MTBF != nil {
		if m.MTBFSeconds, err = cfg.MTBF.build("/failures/mtbf"); err != nil {
			return nil, err
		}
	}
	if cfg.Repair != nil {
		if m.RepairSeconds, err = cfg.Repair.build("/failures/repair"); err != nil {
			return nil, err
		}
	} else {
		m.RepairSeconds = stats.Exponential{Rate: 1.0 / 600} // 10-minute mean
	}
	if cfg.GroupSize != nil {
		if m.GroupSize, err = cfg.GroupSize.build("/failures/groupSize"); err != nil {
			return nil, err
		}
	} else {
		m.GroupSize = stats.Deterministic{Value: 1}
	}
	if cfg.RackBias != nil {
		m.SameRackBias = *cfg.RackBias
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("/failures: %w", err)
	}
	o := &FailureOverlay{
		Model:           m,
		SLOAvailability: cfg.SLO.Availability,
		SLOWindow:       time.Duration(cfg.SLO.WindowSeconds * float64(time.Second)),
		seed:            c.Seed,
		machines:        cfg.Machines,
	}
	if o.SLOAvailability <= 0 || o.SLOAvailability > 1 {
		o.SLOAvailability = 0.99
	}
	if o.SLOWindow <= 0 {
		o.SLOWindow = time.Hour
	}
	return o, nil
}

// Machines returns the failure-domain size: the document's override when
// set, else the kind's default capacity.
func (o *FailureOverlay) Machines(def int) int {
	if o != nil && o.machines > 0 {
		return o.machines
	}
	return def
}

// Draw generates the failure timeline over [0, horizon) for n capacity
// units. The RNG derives from the document seed and the (optional) shard key
// via the sweep's FNV seed law — never from the kernel stream — so enabling
// failures cannot perturb workload synthesis or model dynamics, and the same
// document draws the same timeline on every worker of a distributed sweep.
func (o *FailureOverlay) Draw(shard string, n int, horizon time.Duration, racks []string) ([]failure.Event, error) {
	if o == nil || n <= 0 || horizon <= 0 {
		return nil, nil
	}
	key := "failures"
	if shard != "" {
		key += "/" + shard
	}
	r := rand.New(rand.NewSource(DeriveSeed(o.seed, key)))
	events, err := o.Model.Generate(n, horizon, racks, r)
	if err != nil {
		return nil, fmt.Errorf("/failures: %w", err)
	}
	return events, nil
}

// FailureSourceFunc is the closure shape adapters hand to engines that
// resolve their horizon internally (the datacenter family): the engine calls
// it once with the capacity it actually simulates.
type FailureSourceFunc = func(n int, horizon time.Duration, racks []string) ([]failure.Event, error)

// Source returns a Draw closure for a single-shard kind.
func (o *FailureOverlay) Source() FailureSourceFunc {
	return o.ShardSource("")
}

// ShardSource returns a Draw closure bound to a shard key. Per-shard
// timelines are independent streams derived from the document seed, so a
// sharded kind (federation sites) stays byte-identical at any pool size.
func (o *FailureOverlay) ShardSource(shard string) FailureSourceFunc {
	if o == nil {
		return nil
	}
	return func(n int, horizon time.Duration, racks []string) ([]failure.Event, error) {
		return o.Draw(shard, n, horizon, racks)
	}
}

// FailureShard is one applied timeline an adapter reports: the drawn events,
// the capacity units they struck, and the observation window.
type FailureShard struct {
	Events []failure.Event
	Units  int
	Window time.Duration
}

// AddMetrics merges the overlay's headline numbers into a scenario's metric
// map: availability (capacity-time fraction up), downtimeSeconds (unit-
// seconds of unavailability), failureEvents / failureUnits (events and
// per-unit failures), maxConcurrentDown (per shard — the replication-
// defeating quantity), and the SLO verdict (windows below the availability
// target). Multi-shard kinds pass one FailureShard per shard; values
// accumulate in shard order, so the bytes never depend on pool size.
func (o *FailureOverlay) AddMetrics(metrics map[string]float64, shards ...FailureShard) {
	if o == nil {
		return
	}
	var events, unitFailures, maxDown, violated, windows int
	var downtime, unitTime float64
	for _, sh := range shards {
		if sh.Units <= 0 || sh.Window <= 0 {
			continue
		}
		a := failure.Analyze(sh.Events, sh.Units, sh.Window)
		events += a.Events
		unitFailures += a.MachineFailures
		if a.MaxConcurrentDown > maxDown {
			maxDown = a.MaxConcurrentDown
		}
		shardTime := float64(sh.Units) * sh.Window.Seconds()
		unitTime += shardTime
		downtime += (1 - a.Availability) * shardTime
		for _, wa := range failure.WindowedAvailability(sh.Events, sh.Units, sh.Window, o.SLOWindow) {
			windows++
			if wa < o.SLOAvailability {
				violated++
			}
		}
	}
	availability := 1.0
	if unitTime > 0 {
		availability = 1 - downtime/unitTime
	}
	metrics["availability"] = availability
	metrics["downtimeSeconds"] = downtime
	metrics["failureEvents"] = float64(events)
	metrics["failureUnits"] = float64(unitFailures)
	metrics["maxConcurrentDown"] = float64(maxDown)
	metrics["sloWindowCount"] = float64(windows)
	metrics["sloViolatedWindows"] = float64(violated)
	if windows > 0 {
		metrics["sloViolationRate"] = float64(violated) / float64(windows)
	} else {
		metrics["sloViolationRate"] = 0
	}
}

// RejectFailures is the guard for kinds without a capacity model the overlay
// can degrade: a document that asks them for failure injection errors
// loudly instead of silently ignoring the section.
func (c Common) RejectFailures(kind string) error {
	if c.Failures != nil {
		return fmt.Errorf("scenario %q does not support the failures overlay (supported: datacenter, federation, faas, gaming)", kind)
	}
	return nil
}
