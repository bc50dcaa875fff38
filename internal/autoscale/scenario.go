package autoscale

// This file adapts the autoscaler evaluation study (the D1/D3 matrix of
// Ilyushkin et al. [43]) to the scenario registry (internal/scenario),
// registered under "autoscale": a JSON schema that makes the policy and
// demand pattern config-selectable, a kernel-driven replay of the demand
// curve, and SPEC elasticity scoring (internal/elasticity) of the resulting
// supply curve.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mcs/internal/elasticity"
	"mcs/internal/scenario"
	"mcs/internal/sim"
	"mcs/internal/stats"
)

// ScenarioJSON is the JSON schema of the "autoscale" scenario. The header
// fields (kind, seed) come from the embedded scenario.Common.
type ScenarioJSON struct {
	scenario.Common
	// Policy selects the autoscaler: react, adapt, hist, reg, conpaas,
	// token, plan (default react).
	Policy string `json:"policy"`
	// Pattern selects the demand curve: flat, bursty, diurnal
	// (default bursty).
	Pattern      string  `json:"pattern"`
	HorizonHours float64 `json:"horizonHours"`
	// IntervalSeconds is the decision epoch (default 60).
	IntervalSeconds float64 `json:"intervalSeconds"`
	// ProvisioningDelaySeconds is the scale-up latency; absent defaults to
	// 120, an explicit 0 models instant provisioning.
	ProvisioningDelaySeconds *float64 `json:"provisioningDelaySeconds"`
	MinSupply                int      `json:"minSupply"`
	MaxSupply                int      `json:"maxSupply"`
	InitialSupply            int      `json:"initialSupply"`
	// Policy knobs (zero values take the policy defaults).
	Headroom      float64 `json:"headroom"`      // react
	MaxStep       int     `json:"maxStep"`       // adapt
	Percentile    float64 `json:"percentile"`    // hist
	WindowMinutes float64 `json:"windowMinutes"` // reg, conpaas, plan
}

// ExampleJSON is a ready-to-run autoscale scenario document.
const ExampleJSON = `{
  "kind": "autoscale",
  "policy": "react", "pattern": "bursty",
  "horizonHours": 24, "provisioningDelaySeconds": 120,
  "minSupply": 1, "seed": 43
}`

// PolicyByName builds the named autoscaler with the given knobs; zero-valued
// knobs take each policy's documented default. The empty name defaults to
// "react".
func PolicyByName(name string, cfg ScenarioJSON) (Autoscaler, error) {
	window := time.Duration(cfg.WindowMinutes * float64(time.Minute))
	switch name {
	case "", "react":
		return React{Headroom: cfg.Headroom}, nil
	case "adapt":
		return Adapt{MaxStep: cfg.MaxStep}, nil
	case "hist":
		return Hist{Percentile: cfg.Percentile}, nil
	case "reg":
		return Reg{Window: window}, nil
	case "conpaas":
		return ConPaaS{Window: window}, nil
	case "token":
		return Token{}, nil
	case "plan":
		return Plan{Window: window}, nil
	default:
		return nil, fmt.Errorf("unknown autoscaler policy %q", name)
	}
}

// PatternByName normalizes a demand-pattern name (the empty name defaults
// to "bursty") and rejects unknowns — the one list both Configure and
// DemandByName resolve through.
func PatternByName(name string) (string, error) {
	switch name {
	case "", "bursty":
		return "bursty", nil
	case "flat", "diurnal":
		return name, nil
	default:
		return "", fmt.Errorf("unknown demand pattern %q", name)
	}
}

// DemandByName draws the named demand curve over the horizon with r: "flat"
// is stationary noise around a constant, "bursty" is a two-level process
// with random burst episodes, "diurnal" follows a day/night sine. Points
// land every 5 minutes, the granularity of the D1 experiment.
func DemandByName(name string, horizon time.Duration, r *rand.Rand) (*stats.TimeSeries, error) {
	name, err := PatternByName(name)
	if err != nil {
		return nil, err
	}
	ts := stats.NewTimeSeries()
	const step = 5 * time.Minute
	switch name {
	case "flat":
		for t := time.Duration(0); t < horizon; t += step {
			ts.Add(t, float64(18+r.Intn(5)))
		}
	case "bursty":
		level, left := 6.0, 0
		for t := time.Duration(0); t < horizon; t += step {
			if left == 0 {
				if r.Float64() < 0.15 { // enter a burst episode
					level = float64(30 + r.Intn(30))
					left = 2 + r.Intn(4)
				} else {
					level = float64(4 + r.Intn(5))
					left = 1
				}
			}
			left--
			ts.Add(t, level)
		}
	case "diurnal":
		for t := time.Duration(0); t < horizon; t += step {
			base := 20 + 15*math.Sin(2*math.Pi*t.Hours()/24)
			ts.Add(t, base+float64(r.Intn(4)))
		}
	}
	return ts, nil
}

type autoscaleScenario struct {
	cfg     ScenarioJSON
	policy  Autoscaler
	horizon time.Duration
	opts    SimOptions
}

func init() {
	scenario.Register[ScenarioJSON]("autoscale", ExampleJSON, func() scenario.Scenario { return &autoscaleScenario{} })
}

// Name implements scenario.Scenario.
func (a *autoscaleScenario) Name() string { return "autoscale" }

// Configure implements scenario.Scenario.
func (a *autoscaleScenario) Configure(raw json.RawMessage) error {
	var cfg ScenarioJSON
	if err := scenario.Decode(raw, &cfg); err != nil {
		return err
	}
	if err := cfg.RejectFailures("autoscale"); err != nil {
		return err
	}
	if err := cfg.RejectParallel("autoscale"); err != nil {
		return err
	}
	policy, err := PolicyByName(cfg.Policy, cfg)
	if err != nil {
		return err
	}
	// Normalize the pattern here so the Labels report exactly what runs.
	if cfg.Pattern, err = PatternByName(cfg.Pattern); err != nil {
		return err
	}
	if cfg.HorizonHours <= 0 {
		cfg.HorizonHours = 24
	}
	if cfg.IntervalSeconds <= 0 {
		cfg.IntervalSeconds = 60
	}
	delaySeconds := 120.0
	if cfg.ProvisioningDelaySeconds != nil {
		delaySeconds = *cfg.ProvisioningDelaySeconds
		if delaySeconds < 0 {
			return fmt.Errorf("autoscale scenario: negative provisioningDelaySeconds %v", delaySeconds)
		}
	}
	if cfg.MinSupply <= 0 {
		cfg.MinSupply = 1
	}
	a.cfg = cfg
	a.policy = policy
	a.horizon = time.Duration(cfg.HorizonHours * float64(time.Hour))
	a.opts = SimOptions{
		Interval:          time.Duration(cfg.IntervalSeconds * float64(time.Second)),
		ProvisioningDelay: time.Duration(delaySeconds * float64(time.Second)),
		MinSupply:         cfg.MinSupply,
		MaxSupply:         cfg.MaxSupply,
		InitialSupply:     cfg.InitialSupply,
	}
	return nil
}

// Run implements scenario.Scenario: draw the demand curve from the kernel's
// deterministic RNG, replay it against the policy as kernel events, and
// score the supply curve with the SPEC elasticity metric set.
func (a *autoscaleScenario) Run(k *sim.Kernel) (*scenario.Result, error) {
	demand, err := DemandByName(a.cfg.Pattern, a.horizon, k.Rand())
	if err != nil {
		return nil, err
	}
	supply := SimulateOn(k, a.policy, demand, a.horizon, a.opts)
	m := elasticity.Compute(demand, supply, a.horizon, a.opts.Interval)
	return &scenario.Result{
		Metrics: map[string]float64{
			"accuracyUnder":   m.AccuracyU,
			"accuracyOver":    m.AccuracyO,
			"timeshareUnder":  m.TimeshareU,
			"timeshareOver":   m.TimeshareO,
			"instability":     m.Instability,
			"jitterPerHour":   m.JitterPerHour,
			"risk":            m.Risk(elasticity.DefaultRiskWeights()),
			"meanDemand":      m.MeanDemand,
			"meanSupply":      m.MeanSupply,
			"peakSupply":      supply.MaxValue(),
			"supplyDecisions": float64(supply.Len() - 1),
			"demandPoints":    float64(demand.Len()),
		},
		Labels: map[string]string{
			"policy":  a.policy.Name(),
			"pattern": a.cfg.Pattern,
		},
	}, nil
}
