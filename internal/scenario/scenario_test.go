package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mcs/internal/sim"
)

type fakeScenario struct {
	name      string
	cfgErr    error
	runErr    error
	events    uint64
	metric    float64
	gotRaw    json.RawMessage
	runCalled bool
}

func (f *fakeScenario) Name() string { return f.name }

func (f *fakeScenario) Configure(raw json.RawMessage) error {
	f.gotRaw = raw
	return f.cfgErr
}

func (f *fakeScenario) Run(k *sim.Kernel) (*Result, error) {
	f.runCalled = true
	if f.runErr != nil {
		return nil, f.runErr
	}
	k.AfterFunc(0, func(sim.Time) {})
	k.Run()
	return &Result{Metrics: map[string]float64{"x": f.metric}, Events: f.events}, nil
}

func TestRegistryRegisterLookupList(t *testing.T) {
	Register[Common]("test-alpha", "", func() Scenario { return &fakeScenario{name: "test-alpha"} })
	Register[Common]("test-beta", "", func() Scenario { return &fakeScenario{name: "test-beta"} })
	if _, ok := Lookup("test-alpha"); !ok {
		t.Fatal("registered kind not found")
	}
	if _, ok := Lookup("test-missing"); ok {
		t.Fatal("unregistered kind found")
	}
	var seenAlpha, seenBeta bool
	names := List()
	for i, name := range names {
		if i > 0 && names[i-1] >= name {
			t.Errorf("List not sorted: %v", names)
		}
		seenAlpha = seenAlpha || name == "test-alpha"
		seenBeta = seenBeta || name == "test-beta"
	}
	if !seenAlpha || !seenBeta {
		t.Errorf("List missing registered kinds: %v", names)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register[Common]("test-dup", "", func() Scenario { return &fakeScenario{} })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register[Common]("test-dup", "", func() Scenario { return &fakeScenario{} })
}

func TestRunFillsEnvelope(t *testing.T) {
	f := &fakeScenario{name: "test-env", metric: 4.5}
	Register[Common]("test-env", "", func() Scenario { return f })
	res, err := Run("test-env", 77, json.RawMessage(`{"kind":"test-env"}`))
	if err != nil {
		t.Fatal(err)
	}
	if !f.runCalled {
		t.Fatal("Run never called the scenario")
	}
	if res.Scenario != "test-env" || res.Seed != 77 {
		t.Errorf("envelope = %q/%d", res.Scenario, res.Seed)
	}
	// Events zero in the scenario result: filled from the kernel.
	if res.Events != 1 {
		t.Errorf("events = %d, want 1 (from kernel)", res.Events)
	}
	if res.Metrics["x"] != 4.5 {
		t.Errorf("metrics = %v", res.Metrics)
	}
	if string(f.gotRaw) != `{"kind":"test-env"}` {
		t.Errorf("raw config = %s", f.gotRaw)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run("test-nope", 0, nil); err == nil {
		t.Error("unknown kind accepted")
	}
	Register[Common]("test-cfgerr", "", func() Scenario { return &fakeScenario{cfgErr: errors.New("bad cfg")} })
	if _, err := Run("test-cfgerr", 0, nil); err == nil {
		t.Error("configure error swallowed")
	}
	Register[Common]("test-runerr", "", func() Scenario { return &fakeScenario{runErr: errors.New("boom")} })
	if _, err := Run("test-runerr", 0, nil); err == nil {
		t.Error("run error swallowed")
	}
}

// runawayScenario never drains: every event schedules the next, under a
// budget of 100 events.
type runawayScenario struct{ fakeScenario }

func (r *runawayScenario) Run(k *sim.Kernel) (*Result, error) {
	k.SetMaxEvents(100)
	var spin func(sim.Time)
	spin = func(sim.Time) { k.AfterFunc(1, spin) }
	k.AfterFunc(0, spin)
	k.Run()
	return &Result{Metrics: map[string]float64{"x": 1}}, nil
}

// TestRunFailsOnEventBudget: a kind whose kernel stops on the event budget
// fails through Run with sim.ErrBudget, and its result is not returned.
func TestRunFailsOnEventBudget(t *testing.T) {
	Register[Common]("test-runaway", "", func() Scenario { return &runawayScenario{} })
	res, err := Run("test-runaway", 1, nil)
	if !errors.Is(err, sim.ErrBudget) || res != nil {
		t.Fatalf("runaway kind: result %v, error %v; want no result and sim.ErrBudget", res, err)
	}
}

func TestParseEnvelopeDefaultsKind(t *testing.T) {
	env, err := ParseCommon(json.RawMessage(`{"seed": 12, "machines": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != DefaultKind || env.Seed != 12 {
		t.Errorf("envelope = %+v", env)
	}
	env, err = ParseCommon(json.RawMessage(`{"kind": "faas"}`))
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != "faas" {
		t.Errorf("kind = %q", env.Kind)
	}
	if _, err := ParseCommon(json.RawMessage(`not json`)); err == nil {
		t.Error("malformed envelope accepted")
	}
}

func TestResultJSONExcludesWallClock(t *testing.T) {
	res := &Result{Scenario: "s", Metrics: map[string]float64{"a": 1}, WallClock: 123456}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for key := range decoded {
		if key == "wallClock" || key == "WallClock" {
			t.Error("wall clock leaked into result JSON; same-seed runs would differ")
		}
	}
	names := res.MetricNames()
	if len(names) != 1 || names[0] != "a" {
		t.Errorf("MetricNames = %v", names)
	}
}

// countedSchema is the schema of the test-strict-count kind; it counts
// the times a document is decoded into it.
type countedSchema struct {
	Common
	X int `json:"x"`
}

var countedDecodes int

func (c *countedSchema) UnmarshalJSON(raw []byte) error {
	countedDecodes++
	type plain countedSchema // drops this method, keeps the fields
	return Decode(raw, (*plain)(c))
}

// TestStrictDecodesOncePerAssignment: the sweep's cell check decodes the
// base kind's registered schema once per grid assignment, not once per
// cell — the repetition copies of an assignment differ only in /seed, so
// one decode checks them all. Strict and the sweep's Configure share it.
func TestStrictDecodesOncePerAssignment(t *testing.T) {
	Register[countedSchema]("test-strict-count", "", func() Scenario { return &fakeScenario{name: "test-strict-count"} })
	for _, reps := range []int{0, 1, 7, 64} {
		doc := json.RawMessage(fmt.Sprintf(`{"kind": "sweep", "repetitions": %d,
		  "base": {"kind": "test-strict-count"}, "grid": {"/x": [1, 2, 3]}}`, reps))
		countedDecodes = 0
		if err := Strict(doc); err != nil {
			t.Fatal(err)
		}
		if countedDecodes != 3 {
			t.Errorf("Strict, repetitions %d: %d cell decodes, want 3 (one per assignment)", reps, countedDecodes)
		}
		countedDecodes = 0
		if _, err := New("sweep", doc); err != nil {
			t.Fatal(err)
		}
		if countedDecodes != 3 {
			t.Errorf("New, repetitions %d: %d cell decodes, want 3 (one per assignment)", reps, countedDecodes)
		}
	}
}

// countingRuns is a kind whose Run only counts its calls.
type countingRuns struct {
	fakeScenario
	runs *atomic.Int64
}

func (c *countingRuns) Run(k *sim.Kernel) (*Result, error) {
	c.runs.Add(1)
	return c.fakeScenario.Run(k)
}

// TestSweepRefusesMisspelledCellBeforeAnyRun: an in-process sweep whose
// grid names a field the base kind's schema does not declare, as a path
// or inside one assignment's value, fails before any of its cells runs,
// and the error names the field.
func TestSweepRefusesMisspelledCellBeforeAnyRun(t *testing.T) {
	type schema struct {
		Common
		Machines  int `json:"machines"`
		Scheduler struct {
			Queue string `json:"queue"`
		} `json:"scheduler"`
	}
	var runs atomic.Int64
	Register[schema]("test-count-runs", "", func() Scenario {
		return &countingRuns{fakeScenario: fakeScenario{name: "test-count-runs"}, runs: &runs}
	})
	base := `{"kind": "test-count-runs", "machines": 4, "scheduler": {"queue": "sjf"}}`
	good := `{"kind": "sweep", "parallel": 2, "base": ` + base + `, "grid": {"/machines": [4, 8]}}`
	if _, err := RunDocument(json.RawMessage(good)); err != nil || runs.Load() != 2 {
		t.Fatalf("well-formed sweep: %d runs, error %v; want 2 runs", runs.Load(), err)
	}
	for _, grid := range []string{
		`{"/machnes": [4, 8]}`,
		`{"/machines": [4, 8], "/scheduler": [{"queue": "sjf"}, {"queue": "fcfs", "machnes": 1}]}`,
	} {
		runs.Store(0)
		doc := `{"kind": "sweep", "parallel": 2, "base": ` + base + `, "grid": ` + grid + `}`
		_, err := RunDocument(json.RawMessage(doc))
		if err == nil || !strings.Contains(err.Error(), `unknown field "machnes"`) {
			t.Errorf("grid %s: error %v does not name the misspelled field", grid, err)
		}
		if n := runs.Load(); n != 0 {
			t.Errorf("grid %s: %d cells ran before the sweep failed", grid, n)
		}
	}
}
