package faas

// This file adapts the FaaS platform to the scenario registry
// (internal/scenario), registered under "faas": a JSON schema for the
// function catalog and the invocation stream, and a thin scenario.Scenario
// implementation.
//
// The invocation stream is a first-class workload (one single-task job per
// call: user = function name, submit = arrival, runtime = execution
// demand), materialized at Configure through the workload-source layer —
// synthesized from the document seed, or replayed from a trace file named
// in the document. Either way the platform consumes the same precomputed
// stream, so a trace exported from a synthetic run replays to a
// byte-identical result.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mcs/internal/failure"
	"mcs/internal/scenario"
	"mcs/internal/sim"
	"mcs/internal/stats"
	"mcs/internal/trace"
	"mcs/internal/workload"
)

// FunctionJSON declares one deployable function in the scenario document.
type FunctionJSON struct {
	Name string `json:"name"`
	// MeanSeconds is the mean execution time; durations are drawn from a
	// lognormal around it, truncated to [mean/20, mean*20].
	MeanSeconds float64 `json:"meanSeconds"`
	// SigmaLog is the lognormal shape parameter (default 0.6).
	SigmaLog         float64 `json:"sigmaLog"`
	ColdStartSeconds float64 `json:"coldStartSeconds"`
	MemoryMB         int     `json:"memoryMB"`
}

// ScenarioJSON is the JSON schema of the "faas" scenario. The header fields
// (kind, seed, the workload trace reference, the failures overlay) come from
// the embedded scenario.Common: a trace file named there replays through the
// format registry (each task is one call of the function named by its job's
// user, with the task runtime as execution demand); an empty reference
// synthesizes from Invocations/MeanGapSeconds and the document seed.
type ScenarioJSON struct {
	scenario.Common
	Functions []FunctionJSON `json:"functions"`
	// Invocations is the total number of calls, spread Poisson over the
	// functions (uniform choice) with MeanGapSeconds between arrivals.
	Invocations    int     `json:"invocations"`
	MeanGapSeconds float64 `json:"meanGapSeconds"`
	// Platform operational knobs (zero values take platform defaults).
	KeepWarm           int     `json:"keepWarm"`
	MaxInstances       int     `json:"maxInstances"`
	IdleTimeoutSeconds float64 `json:"idleTimeoutSeconds"`
}

// ExampleJSON is a ready-to-run faas scenario document.
const ExampleJSON = `{
  "kind": "faas",
  "functions": [
    {"name": "ingest", "meanSeconds": 0.1, "coldStartSeconds": 1, "memoryMB": 128},
    {"name": "resize", "meanSeconds": 0.4, "coldStartSeconds": 2, "memoryMB": 512},
    {"name": "store", "meanSeconds": 0.08, "coldStartSeconds": 1, "memoryMB": 128}
  ],
  "invocations": 2000, "meanGapSeconds": 3,
  "keepWarm": 1, "idleTimeoutSeconds": 120, "seed": 7
}`

type faasScenario struct {
	cfg       Config
	functions []Function
	w         *workload.Workload

	overlay    *scenario.FailureOverlay
	failEvents []failure.Event
	slots      int
	window     time.Duration
}

func init() {
	scenario.Register[ScenarioJSON]("faas", ExampleJSON, func() scenario.Scenario { return &faasScenario{} })
}

// Name implements scenario.Scenario.
func (f *faasScenario) Name() string { return "faas" }

// SourceWorkload implements scenario.WorkloadProvider.
func (f *faasScenario) SourceWorkload() (*workload.Workload, error) {
	if f.w == nil {
		return nil, fmt.Errorf("faas: not configured")
	}
	return f.w, nil
}

// Configure implements scenario.Scenario.
func (f *faasScenario) Configure(raw json.RawMessage) error {
	var cfg ScenarioJSON
	if err := scenario.Decode(raw, &cfg); err != nil {
		return err
	}
	if err := cfg.RejectParallel("faas"); err != nil {
		return err
	}
	if len(cfg.Functions) == 0 {
		// Default catalog: the serverless example's image pipeline.
		cfg.Functions = []FunctionJSON{
			{Name: "ingest", MeanSeconds: 0.1, ColdStartSeconds: 1, MemoryMB: 128},
			{Name: "resize", MeanSeconds: 0.4, ColdStartSeconds: 2, MemoryMB: 512},
			{Name: "store", MeanSeconds: 0.08, ColdStartSeconds: 1, MemoryMB: 128},
		}
	}
	var names []string
	for _, fn := range cfg.Functions {
		if fn.Name == "" {
			return fmt.Errorf("faas scenario: function with empty name")
		}
		mean := fn.MeanSeconds
		if mean <= 0 {
			mean = 0.1
		}
		sigma := fn.SigmaLog
		if sigma <= 0 {
			sigma = 0.6
		}
		f.functions = append(f.functions, Function{
			Name:      fn.Name,
			Exec:      stats.Truncate{D: stats.LogNormal{Mu: math.Log(mean), Sigma: sigma}, Lo: mean / 20, Hi: mean * 20},
			ColdStart: time.Duration(fn.ColdStartSeconds * float64(time.Second)),
			MemoryMB:  fn.MemoryMB,
		})
		names = append(names, fn.Name)
	}
	f.cfg = Config{
		MaxInstances: cfg.MaxInstances,
		KeepWarm:     cfg.KeepWarm,
		IdleTimeout:  time.Duration(cfg.IdleTimeoutSeconds * float64(time.Second)),
	}

	count := cfg.Invocations
	if count <= 0 {
		count = 1000
	}
	gap := cfg.MeanGapSeconds
	if gap <= 0 {
		gap = 1
	}
	meanGap := time.Duration(gap * float64(time.Second))
	functions := f.functions
	src := trace.SourceFor(cfg.Workload.Ref, cfg.Seed, func(r *rand.Rand) (*workload.Workload, error) {
		return generateInvocations(functions, names, count, meanGap, r)
	})
	w, err := src.Load()
	if err != nil {
		return err
	}
	f.w = w

	overlay, err := cfg.FailureOverlay()
	if err != nil {
		return err
	}
	if overlay != nil {
		// The failure domain is the pool of host slots backing instances:
		// one slot per instance the per-function limits could create, unless
		// the document overrides with failures.machines. The timeline spans
		// the invocation stream plus the idle-timeout tail, the window the
		// platform can still hold instances in.
		maxInst := cfg.MaxInstances
		if maxInst <= 0 {
			maxInst = 64
		}
		idle := f.cfg.IdleTimeout
		if idle <= 0 {
			idle = 5 * time.Minute
		}
		f.slots = overlay.Machines(maxInst * len(f.functions))
		f.window = w.Span() + idle
		f.failEvents, err = overlay.Draw("", f.slots, f.window, nil)
		if err != nil {
			return err
		}
		f.overlay = overlay
	}
	return nil
}

// generateInvocations synthesizes the invocation workload: Poisson arrivals
// over a uniform function choice, execution demand drawn per call from the
// function's distribution — sampled here, at workload time, so the demand
// travels with the trace instead of being re-drawn at execution time.
func generateInvocations(functions []Function, names []string, count int, meanGap time.Duration, r *rand.Rand) (*workload.Workload, error) {
	w := &workload.Workload{Jobs: make([]workload.Job, 0, count)}
	var at time.Duration
	for i := 0; i < count; i++ {
		at += time.Duration(r.ExpFloat64() * float64(meanGap))
		fn := &functions[r.Intn(len(names))]
		execSec := fn.Exec.Sample(r)
		if execSec < 0.0001 {
			execSec = 0.0001
		}
		id := workload.JobID(i + 1)
		w.Jobs = append(w.Jobs, workload.Job{
			ID:     id,
			User:   fn.Name,
			Submit: at,
			Tasks: []workload.Task{{
				ID:       workload.TaskID(i + 1),
				Job:      id,
				Cores:    1,
				MemoryMB: fn.MemoryMB,
				Runtime:  time.Duration(execSec * float64(time.Second)),
			}},
		})
	}
	return w, nil
}

// Run implements scenario.Scenario.
func (f *faasScenario) Run(k *sim.Kernel) (*scenario.Result, error) {
	p, err := NewPlatformOn(k, f.cfg, f.functions)
	if err != nil {
		return nil, err
	}
	if f.overlay != nil {
		if err := p.InjectFailures(f.failEvents, f.slots); err != nil {
			return nil, err
		}
	}
	for i := range f.w.Jobs {
		j := &f.w.Jobs[i]
		for _, t := range j.Tasks {
			inv := Invocation{Function: j.User, At: j.Submit, Exec: t.Runtime}
			if err := p.Invoke(inv, nil); err != nil {
				return nil, err
			}
		}
	}
	res := p.Drain()
	metrics := map[string]float64{
		"invocations":        float64(len(res.Records)),
		"meanLatencySeconds": res.MeanLatency.Seconds(),
		"p50LatencySeconds":  res.P50Latency.Seconds(),
		"p95LatencySeconds":  res.P95Latency.Seconds(),
		"p99LatencySeconds":  res.P99Latency.Seconds(),
		"coldStarts":         float64(res.ColdStarts),
		"coldFraction":       res.ColdFraction,
		"instanceSeconds":    res.InstanceSeconds,
		"peakInstances":      float64(res.PeakInstances),
	}
	if f.overlay != nil {
		metrics["failureKills"] = float64(res.FailureKills)
		metrics["failureRestarts"] = float64(res.FailureRestarts)
		f.overlay.AddMetrics(metrics, scenario.FailureShard{
			Events: f.failEvents,
			Units:  f.slots,
			Window: f.window,
		})
	}
	return &scenario.Result{Metrics: metrics}, nil
}
