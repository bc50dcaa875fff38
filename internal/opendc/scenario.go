package opendc

// This file adapts the datacenter simulator to the scenario registry
// (internal/scenario): the JSON schema the original mcsim CLI accepted, a
// builder from that schema to a runnable Scenario, and the thin
// scenario.Scenario implementation registered under "datacenter" (the
// default kind, for backward compatibility with pre-registry documents).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/scenario"
	"mcs/internal/sched"
	"mcs/internal/sim"
	"mcs/internal/trace"
	"mcs/internal/workload"
)

// ScenarioJSON is the JSON schema of the datacenter scenario (all durations
// in seconds). The document front half — kind, seed, parallel, the workload
// block, and the failures overlay — is the embedded scenario.Common header;
// only the cluster and scheduler sections are datacenter-specific.
type ScenarioJSON struct {
	scenario.Common
	Machines  int    `json:"machines"`
	Class     string `json:"class"`
	RackSize  int    `json:"rackSize"`
	Scheduler struct {
		Queue     string `json:"queue"`
		Placement string `json:"placement"`
		Mode      string `json:"mode"`
	} `json:"scheduler"`
	HorizonSeconds float64 `json:"horizonSeconds"`
}

// ExampleJSON is a ready-to-run datacenter scenario document.
const ExampleJSON = `{
  "kind": "datacenter",
  "machines": 32, "class": "commodity", "rackSize": 16,
  "workload": {"jobs": 500, "pattern": "bursty", "shape": "bag"},
  "scheduler": {"queue": "sjf", "placement": "bestfit", "mode": "easy"},
  "failures": {
    "mtbf": {"dist": "weibull", "shape": 0.6, "mean": 14400},
    "repair": {"dist": "lognormal", "mean": 600},
    "groupSize": {"dist": "normal", "mean": 4, "sigma": 2},
    "rackBias": 0.8,
    "slo": {"availability": 0.99, "windowSeconds": 3600}
  },
  "horizonSeconds": 86400, "seed": 1
}`

// Build converts the JSON schema into a runnable scenario. A failures
// section in the document header becomes a document-seeded FailureSource
// (the kernel's random stream stays untouched); Build returns that
// section's overlay too, nil without one, for the run's failure metrics.
func Build(cfg ScenarioJSON) (*Scenario, *scenario.FailureOverlay, error) {
	if cfg.Machines <= 0 {
		cfg.Machines = 16
	}
	class, err := ClassByName(cfg.Class)
	if err != nil {
		return nil, nil, err
	}
	cluster := dcmodel.NewHomogeneous("mcsim", cfg.Machines, class, cfg.RackSize)

	src, err := WorkloadSource(cfg)
	if err != nil {
		return nil, nil, err
	}
	w, err := src.Load()
	if err != nil {
		return nil, nil, err
	}

	schedCfg, err := SchedulerByNames(cfg.Scheduler.Queue, cfg.Scheduler.Placement, cfg.Scheduler.Mode)
	if err != nil {
		return nil, nil, err
	}

	sc := &Scenario{
		Cluster:  cluster,
		Workload: w,
		Sched:    schedCfg,
		Horizon:  time.Duration(cfg.HorizonSeconds * float64(time.Second)),
		Seed:     cfg.Seed,
	}
	overlay, err := cfg.FailureOverlay()
	if err != nil {
		return nil, nil, err
	}
	if overlay != nil {
		sc.FailureSource = overlay.Source()
	}
	return sc, overlay, nil
}

// WorkloadSource maps the document's workload block to a workload source:
// a declared trace file replays through the format registry; otherwise a
// synthetic generator seeded with the document seed synthesizes the
// workload from the shared pattern/shape vocabulary.
func WorkloadSource(cfg ScenarioJSON) (workload.Source, error) {
	gen := workload.GeneratorConfig{Jobs: cfg.Workload.Jobs}
	var err error
	if gen.Arrival, err = workload.ArrivalByName(cfg.Workload.Pattern); err != nil {
		return nil, err
	}
	if gen.Shape, err = workload.ShapeByName(cfg.Workload.Shape); err != nil {
		return nil, err
	}
	return trace.SourceFor(cfg.Workload.Ref, cfg.Seed,
		func(r *rand.Rand) (*workload.Workload, error) { return workload.Generate(gen, r) }), nil
}

// ClassByName maps a scenario document's "class" field to a machine class.
// The empty name defaults to "commodity".
func ClassByName(name string) (dcmodel.MachineClass, error) {
	switch name {
	case "", "commodity":
		return dcmodel.ClassCommodity, nil
	case "bignode":
		return dcmodel.ClassBig, nil
	case "oldgen":
		return dcmodel.ClassSlow, nil
	case "gpu":
		return dcmodel.ClassGPU, nil
	default:
		return dcmodel.MachineClass{}, fmt.Errorf("unknown machine class %q", name)
	}
}

// SchedulerByNames maps a scenario document's scheduler vocabulary (queue,
// placement, queue mode) to a sched.Config. Empty names take the documented
// defaults (fcfs, firstfit, easy).
func SchedulerByNames(queue, placement, mode string) (sched.Config, error) {
	var cfg sched.Config
	switch queue {
	case "", "fcfs":
		cfg.Queue = sched.FCFS{}
	case "sjf":
		cfg.Queue = sched.SJF{}
	case "ljf":
		cfg.Queue = sched.LJF{}
	case "wfp3":
		cfg.Queue = sched.WFP3{}
	case "fairshare":
		cfg.Queue = sched.NewFairShare()
	default:
		return cfg, fmt.Errorf("unknown queue policy %q", queue)
	}
	switch placement {
	case "", "firstfit":
		cfg.Placement = sched.FirstFit{}
	case "bestfit":
		cfg.Placement = sched.BestFit{}
	case "worstfit":
		cfg.Placement = sched.WorstFit{}
	case "fastestfit":
		cfg.Placement = sched.FastestFit{}
	default:
		return cfg, fmt.Errorf("unknown placement policy %q", placement)
	}
	switch mode {
	case "", "easy":
		cfg.Mode = sched.EASY
	case "strict":
		cfg.Mode = sched.Strict
	case "greedy":
		cfg.Mode = sched.Greedy
	default:
		return cfg, fmt.Errorf("unknown queue mode %q", mode)
	}
	return cfg, nil
}

// datacenterScenario adapts the simulator to the registry.
type datacenterScenario struct {
	sc      *Scenario
	overlay *scenario.FailureOverlay
	policy  string
}

func init() {
	scenario.Register[ScenarioJSON]("datacenter", ExampleJSON, func() scenario.Scenario { return &datacenterScenario{} })
}

// Name implements scenario.Scenario.
func (d *datacenterScenario) Name() string { return "datacenter" }

// SourceWorkload implements scenario.WorkloadProvider: the workload the
// configured run executes, exportable as a trace and replayable to a
// byte-identical result.
func (d *datacenterScenario) SourceWorkload() (*workload.Workload, error) {
	if d.sc == nil {
		return nil, fmt.Errorf("datacenter: not configured")
	}
	return d.sc.Workload, nil
}

// Configure implements scenario.Scenario.
func (d *datacenterScenario) Configure(raw json.RawMessage) error {
	var cfg ScenarioJSON
	if err := scenario.Decode(raw, &cfg); err != nil {
		return err
	}
	if err := cfg.RejectParallel("datacenter"); err != nil {
		return err
	}
	sc, overlay, err := Build(cfg)
	if err != nil {
		return err
	}
	d.sc = sc
	d.overlay = overlay
	d.policy = sc.Sched.Named()
	return nil
}

// Run implements scenario.Scenario.
func (d *datacenterScenario) Run(k *sim.Kernel) (*scenario.Result, error) {
	res, err := RunOn(k, d.sc)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{
		"completed":           float64(res.Completed),
		"failed":              float64(res.Failed),
		"failureRestarts":     float64(res.FailureRestarts),
		"makespanSeconds":     res.Makespan.Seconds(),
		"meanWaitSeconds":     res.MeanWait.Seconds(),
		"p95WaitSeconds":      res.P95Wait.Seconds(),
		"meanSlowdown":        res.MeanSlowdown,
		"utilization":         res.Utilization,
		"energyKWh":           res.EnergyKWh,
		"goodputTasksPerHour": res.GoodputTasksPerHour,
	}
	d.overlay.AddMetrics(metrics, scenario.FailureShard{
		Events: res.FailureEvents,
		Units:  len(d.sc.Cluster.Machines),
		Window: res.FailureWindow,
	})
	return &scenario.Result{
		Metrics: metrics,
		Labels:  map[string]string{"policy": d.policy},
		Events:  res.SimulatedEvents,
	}, nil
}
