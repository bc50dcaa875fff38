// Package scenario is the unification layer between the simulation kernel
// and the ecosystem models: every workload domain (datacenter, serverless,
// gaming, banking, graph processing, ...) plugs into one registry behind one
// interface, so runners such as cmd/mcsim can execute any of them through a
// single code path.
//
// This is the architectural answer to the paper's demand for reproducible,
// simulation-based experimentation across many ecosystems (§5.3 C15–C16,
// §6.1 C11): one high-throughput engine (internal/sim), many ~50-line
// adapters. An ecosystem package registers a factory in its init function;
// consumers import the package for effect and dispatch by kind:
//
//	res, err := scenario.Run("faas", seed, rawJSON)
//
// Results travel in a common envelope — a sorted named-metrics map, the
// kernel event count, and the wall-clock cost — whose JSON form is
// byte-identical across same-seed runs (wall-clock is deliberately excluded
// from the JSON encoding to preserve that property).
package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"mcs/internal/obs"
	"mcs/internal/sim"
	"mcs/internal/workload"
)

// Scenario is one runnable workload domain. Implementations are configured
// from the whole raw JSON document, envelope included, which Configure
// decodes with Decode into the schema the kind registered: a field that
// schema does not declare fails the run. The scenario is then executed on a
// kernel provided by the runner.
type Scenario interface {
	// Name returns the registry kind this scenario answers to.
	Name() string
	// Configure parses and validates the scenario document. It is called
	// exactly once, before Run.
	Configure(raw json.RawMessage) error
	// Run executes the scenario on the given kernel and returns its result.
	// Implementations must draw all randomness from the kernel (or from
	// sources seeded by the same scenario seed) to stay reproducible.
	Run(k *sim.Kernel) (*Result, error)
}

// WorkloadProvider is optionally implemented by scenarios whose workload is
// a first-class workload.Workload — the trace-capable kinds. The returned
// workload is the one the scenario runs (materialized at Configure, from
// either a synthetic source or a trace file), so exporting it with a trace
// writer and replaying the export reproduces the run byte for byte. Used
// by `mcsim -export-trace`.
type WorkloadProvider interface {
	SourceWorkload() (*workload.Workload, error)
}

// Result is the common envelope every scenario returns. Its JSON encoding is
// deterministic for a fixed seed: Metrics is a map (Go marshals map keys in
// sorted order) and WallClock — the only nondeterministic field — is
// excluded from the encoding.
type Result struct {
	// Scenario is the registry kind that produced this result.
	Scenario string `json:"scenario"`
	// Seed is the kernel seed of the run.
	Seed int64 `json:"seed"`
	// Metrics holds the named headline numbers of the run.
	Metrics map[string]float64 `json:"metrics"`
	// Labels holds named string facts about the run (policy names,
	// engine variants); like Metrics, it marshals deterministically.
	Labels map[string]string `json:"labels,omitempty"`
	// Events is the number of kernel events processed.
	Events uint64 `json:"events"`
	// Cells holds the per-cell result envelopes of a meta-scenario (the
	// "sweep" kind) in deterministic grid order; nil for ordinary runs.
	Cells []*Result `json:"cells,omitempty"`
	// Telemetry is the optional kernel-counter block (per-path dispatch
	// counts and cancels; see obs.KernelSnapshot). It is attached
	// only on request — `mcsim -telemetry` — and omitted otherwise, so
	// existing result bytes are untouched by default. The counters are
	// derived from the same deterministic event stream as the run, so the
	// block itself is seed-stable.
	Telemetry *obs.KernelSnapshot `json:"telemetry,omitempty"`
	// WallClock is the real time the run took. Excluded from JSON so that
	// same-seed results stay byte-identical (paper C15–C16).
	WallClock time.Duration `json:"-"`
}

// MetricNames returns the metric keys in sorted order.
func (r *Result) MetricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Factory creates a fresh, unconfigured scenario instance.
type Factory func() Scenario

// entry is one registry entry: everything a kind declares about its
// documents, once, when it registers.
type entry struct {
	factory Factory
	// example is a ready-to-run document (`mcsim -example`).
	example string
	// check decodes a document into the kind's schema and configures
	// nothing.
	check func(raw json.RawMessage) error
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]entry)
)

// Register adds a scenario kind to the registry: Schema is the Go type of
// its whole document (the type its Configure decodes), example a
// ready-to-run document. It is intended to be called from package init
// functions and panics on a duplicate or empty name, which is always a
// programming error.
func Register[Schema any](name, example string, factory Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || factory == nil {
		panic("scenario: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", name))
	}
	registry[name] = entry{factory: factory, example: example, check: func(raw json.RawMessage) error {
		var doc Schema
		return Decode(raw, &doc)
	}}
}

func lookup(name string) (entry, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, bool) {
	e, ok := lookup(name)
	return e.factory, ok
}

// Example returns the example document registered under name; false when
// name is not registered or registered none.
func Example(name string) (string, bool) {
	e, _ := lookup(name)
	return e.example, e.example != ""
}

// List returns all registered kinds in sorted order.
func List() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run is the one-call path used by runners: look the kind up, configure a
// fresh instance from raw, execute it on a kernel seeded with seed, and
// stamp the envelope. Scenarios that leave Events zero get the kernel's
// processed-event count filled in.
func Run(kind string, seed int64, raw json.RawMessage) (*Result, error) {
	s, err := New(kind, raw)
	if err != nil {
		return nil, err
	}
	return RunScenario(s, seed)
}

// New returns a configured scenario instance for kind. Runners that need
// the instance after execution (e.g. to export its workload as a trace)
// use New + RunScenario instead of Run.
func New(kind string, raw json.RawMessage) (Scenario, error) {
	factory, ok := Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown kind %q (registered: %v)", kind, List())
	}
	s := factory()
	if len(raw) == 0 {
		raw = json.RawMessage("{}")
	}
	if err := s.Configure(raw); err != nil {
		return nil, fmt.Errorf("scenario %q: configure: %w", kind, err)
	}
	return s, nil
}

// RunScenario executes an already-configured scenario on a fresh kernel
// seeded with seed and stamps the result envelope.
func RunScenario(s Scenario, seed int64) (*Result, error) {
	return RunScenarioObserved(s, seed, nil)
}

// RunScenarioObserved is RunScenario on an instrumented kernel: st (when
// non-nil) accumulates the kernel's dispatch telemetry and drives its
// heartbeat hook while the run executes. The result bytes are identical to
// an unobserved run — telemetry reads, never writes — and the snapshot is
// NOT attached to the envelope here; callers that want the `telemetry`
// block set res.Telemetry from st.Snapshot() themselves.
func RunScenarioObserved(s Scenario, seed int64, st *obs.KernelStats) (*Result, error) {
	kind := s.Name()
	var k *sim.Kernel
	if st != nil {
		k = sim.New(seed, sim.WithKernelStats(st))
	} else {
		k = sim.New(seed)
	}
	start := time.Now()
	res, err := s.Run(k)
	if err == nil {
		err = k.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %q: run: %w", kind, err)
	}
	if res == nil {
		return nil, fmt.Errorf("scenario %q: nil result", kind)
	}
	res.Scenario = kind
	res.Seed = seed
	if res.Events == 0 {
		res.Events = k.Processed()
	}
	res.WallClock = time.Since(start)
	if res.Metrics == nil {
		res.Metrics = map[string]float64{}
	}
	return res, nil
}

// RunDocument dispatches a full scenario document: parse the common header,
// then Run the named kind with the whole document as its configuration.
func RunDocument(raw json.RawMessage) (*Result, error) {
	env, err := ParseCommon(raw)
	if err != nil {
		return nil, err
	}
	return Run(env.Kind, env.Seed, raw)
}
