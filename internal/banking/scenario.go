package banking

// This file adapts the PSD2-style clearing pipeline to the scenario registry
// (internal/scenario), registered under "banking": a JSON schema selecting
// the workload size, deadline mix, and queue discipline, and a thin
// scenario.Scenario implementation over the default four-stage pipeline.
//
// The transaction stream is a first-class workload (see workload.go for
// the field mapping), materialized at Configure as the transaction column
// the pipeline clears — synthesized from the document seed, or replayed
// from a trace file named in the document and converted once. The
// pipeline consumes the same precomputed stream either way, and its
// per-stage service times are kernel-RNG dynamics whose draw order the
// stream fixes, so a trace exported from a synthetic run replays to a
// byte-identical result. The job/task form exists only for export: it is
// built from the column on the first SourceWorkload call.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"mcs/internal/scenario"
	"mcs/internal/sim"
	"mcs/internal/trace"
	"mcs/internal/workload"
)

// ScenarioJSON is the JSON schema of the "banking" scenario. The header
// fields (kind, seed, the workload trace reference) come from the embedded
// scenario.Common: a trace file named there replays through the format
// registry; an empty reference synthesizes from Transactions/InstantShare
// and the document seed.
type ScenarioJSON struct {
	scenario.Common
	// Transactions is the size of the daily workload (default 5000).
	Transactions int `json:"transactions"`
	// InstantShare is the fraction of transactions with a 10-second instant
	// deadline (the rest get one hour).
	InstantShare float64 `json:"instantShare"`
	// Discipline is "fcfs" or "edf" (default "edf").
	Discipline string `json:"discipline"`
}

// ExampleJSON is a ready-to-run banking scenario document.
const ExampleJSON = `{
  "kind": "banking",
  "transactions": 5000, "instantShare": 0.3,
  "discipline": "edf", "seed": 5
}`

type bankingScenario struct {
	disc QueueDiscipline
	txs  []Transaction
	// w is the workload form of txs, built on first SourceWorkload call.
	w *workload.Workload
}

func init() {
	scenario.Register("banking", func() scenario.Scenario { return &bankingScenario{} })
}

// Name implements scenario.Scenario.
func (b *bankingScenario) Name() string { return "banking" }

// Example implements scenario.Exampler.
func (b *bankingScenario) Example() string { return ExampleJSON }

// SourceWorkload implements scenario.WorkloadProvider. The workload is
// the transaction column's export form (WorkloadFromTransactions), built
// on the first call: only trace export reads it.
func (b *bankingScenario) SourceWorkload() (*workload.Workload, error) {
	if b.txs == nil {
		return nil, fmt.Errorf("banking: not configured")
	}
	if b.w == nil {
		b.w = WorkloadFromTransactions(b.txs)
	}
	return b.w, nil
}

// Configure implements scenario.Scenario.
func (b *bankingScenario) Configure(raw json.RawMessage) error {
	return b.configure(raw, sim.EventBudget)
}

// configure is Configure for a run under an event budget of budget.
func (b *bankingScenario) configure(raw json.RawMessage, budget uint64) error {
	var cfg ScenarioJSON
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return err
	}
	if err := cfg.RejectFailures("banking"); err != nil {
		return err
	}
	if err := cfg.RejectParallel("banking"); err != nil {
		return err
	}
	if cfg.Transactions <= 0 {
		cfg.Transactions = 5000
	}
	if cfg.InstantShare < 0 || cfg.InstantShare > 1 {
		return fmt.Errorf("banking scenario: instantShare %v out of [0,1]", cfg.InstantShare)
	}
	switch cfg.Discipline {
	case "", "edf":
		b.disc = EDF
	case "fcfs":
		b.disc = FCFS
	default:
		return fmt.Errorf("banking scenario: unknown discipline %q", cfg.Discipline)
	}
	// The largest stream a run can settle within the budget: every
	// transaction fires at least its arrival and one completion per
	// stage, so a longer one must exhaust it.
	limit := int(budget / uint64(1+len(DefaultPipeline())))
	if cfg.Workload.Trace == "" {
		if cfg.Transactions > limit {
			return fmt.Errorf("banking scenario: %d transactions cannot settle within the event budget (at most %d)", cfg.Transactions, limit)
		}
		// The seed construction of workload.Synthetic, the source the
		// other trace-capable kinds synthesize through.
		b.txs = generateTransactions(cfg.Transactions, cfg.InstantShare, rand.New(rand.NewSource(cfg.Seed)))
		return nil
	}
	w, err := trace.File{Path: cfg.Workload.Trace, Format: cfg.Workload.Format}.Load()
	if err != nil {
		return err
	}
	txs := TransactionsFromWorkload(w)
	if len(txs) > limit {
		return fmt.Errorf("banking scenario: trace %s holds %d transactions, which cannot settle within the event budget (at most %d)", cfg.Workload.Trace, len(txs), limit)
	}
	b.txs = txs
	return nil
}

// Schema implements scenario.Schemer (mcsim -strict).
func (b *bankingScenario) Schema() any { return &ScenarioJSON{} }

// Run implements scenario.Scenario.
func (b *bankingScenario) Run(k *sim.Kernel) (*scenario.Result, error) {
	res, err := RunClearingOn(k, DefaultPipeline(), b.txs, b.disc)
	if err != nil {
		return nil, err
	}
	return &scenario.Result{
		Metrics: map[string]float64{
			"completed":           float64(res.Completed),
			"deadlineMisses":      float64(res.DeadlineMiss),
			"missRate":            res.MissRate,
			"meanLatencySeconds":  res.MeanLatency.Seconds(),
			"p95LatencySeconds":   res.P95Latency.Seconds(),
			"meanLatenessSeconds": res.MeanLateness.Seconds(),
			"maxQueueDepth":       float64(res.MaxQueueDepth),
		},
		Labels: map[string]string{"discipline": b.disc.String()},
	}, nil
}
