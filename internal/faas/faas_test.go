package faas

import (
	"testing"
	"time"

	"mcs/internal/failure"
	"mcs/internal/sim"
	"mcs/internal/stats"
)

func testFunctions() []Function {
	return []Function{
		{Name: "resize", Exec: stats.Deterministic{Value: 0.1}, ColdStart: 2 * time.Second, MemoryMB: 256},
		{Name: "classify", Exec: stats.Deterministic{Value: 0.5}, ColdStart: 4 * time.Second, MemoryMB: 1024},
		{Name: "store", Exec: stats.Deterministic{Value: 0.05}, ColdStart: time.Second, MemoryMB: 128},
	}
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := NewPlatformOn(sim.New(0), Config{}, []Function{{Name: "f"}}); err == nil {
		t.Error("function without exec distribution accepted")
	}
	fns := testFunctions()
	fns = append(fns, fns[0])
	if _, err := NewPlatformOn(sim.New(0), Config{}, fns); err == nil {
		t.Error("duplicate function accepted")
	}
}

func TestFirstInvocationIsCold(t *testing.T) {
	p, err := NewPlatformOn(sim.New(1), Config{}, testFunctions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke(Invocation{Function: "resize", At: 0}, nil); err != nil {
		t.Fatal(err)
	}
	res := p.Drain()
	if len(res.Records) != 1 {
		t.Fatalf("records=%d", len(res.Records))
	}
	rec := res.Records[0]
	if !rec.Cold {
		t.Error("first invocation must cold start")
	}
	// Latency = cold start (2s) + exec (0.1s).
	if got := rec.Latency(); got != 2100*time.Millisecond {
		t.Errorf("latency=%v, want 2.1s", got)
	}
	if res.ColdFraction != 1 {
		t.Errorf("cold fraction=%v", res.ColdFraction)
	}
}

func TestWarmReuseAvoidsColdStart(t *testing.T) {
	p, err := NewPlatformOn(sim.New(1), Config{IdleTimeout: time.Minute}, testFunctions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := p.Invoke(Invocation{Function: "resize", At: time.Duration(i) * 10 * time.Second}, nil); err != nil {
			t.Fatal(err)
		}
	}
	res := p.Drain()
	if res.ColdStarts != 1 {
		t.Errorf("cold starts=%d, want 1 (first only)", res.ColdStarts)
	}
	if res.PeakInstances != 1 {
		t.Errorf("peak instances=%d, want 1", res.PeakInstances)
	}
}

func TestIdleTimeoutCausesRecold(t *testing.T) {
	p, err := NewPlatformOn(sim.New(1), Config{IdleTimeout: 5 * time.Second}, testFunctions())
	if err != nil {
		t.Fatal(err)
	}
	// Second call arrives long after the idle timeout.
	p.Invoke(Invocation{Function: "resize", At: 0}, nil)
	p.Invoke(Invocation{Function: "resize", At: time.Minute}, nil)
	res := p.Drain()
	if res.ColdStarts != 2 {
		t.Errorf("cold starts=%d, want 2", res.ColdStarts)
	}
}

func TestKeepWarmPreventsRecold(t *testing.T) {
	p, err := NewPlatformOn(sim.New(1), Config{IdleTimeout: 5 * time.Second, KeepWarm: 1}, testFunctions())
	if err != nil {
		t.Fatal(err)
	}
	p.Invoke(Invocation{Function: "resize", At: 0}, nil)
	p.Invoke(Invocation{Function: "resize", At: time.Minute}, nil)
	res := p.Drain()
	if res.ColdStarts != 1 {
		t.Errorf("cold starts=%d, want 1 with keep-warm", res.ColdStarts)
	}
	// Keep-warm costs instance-seconds: the instance lives the whole run.
	if res.InstanceSeconds < 50 {
		t.Errorf("instance seconds=%v, want ≥50 (warm pool billed)", res.InstanceSeconds)
	}
}

func TestIsolationLimitQueues(t *testing.T) {
	p, err := NewPlatformOn(sim.New(1), Config{MaxInstances: 1}, []Function{
		{Name: "slow", Exec: stats.Deterministic{Value: 10}, ColdStart: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Invoke(Invocation{Function: "slow", At: 0}, nil)
	}
	res := p.Drain()
	if res.PeakInstances != 1 {
		t.Errorf("peak=%d, want 1 (isolation limit)", res.PeakInstances)
	}
	// Serialized: finishes at 10, 20, 30s.
	var finishes []time.Duration
	for _, r := range res.Records {
		finishes = append(finishes, r.Finish)
	}
	if len(finishes) != 3 || finishes[2] != 30*time.Second {
		t.Errorf("finishes=%v", finishes)
	}
}

func TestUnknownFunctionRejected(t *testing.T) {
	p, err := NewPlatformOn(sim.New(0), Config{}, testFunctions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke(Invocation{Function: "nope"}, nil); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestWorkflowSequencing(t *testing.T) {
	p, err := NewPlatformOn(sim.New(1), Config{}, testFunctions())
	if err != nil {
		t.Fatal(err)
	}
	w := Workflow{Name: "pipeline", Stages: [][]string{
		{"resize"}, {"classify", "classify"}, {"store"},
	}}
	var got WorkflowRecord
	if err := p.SubmitWorkflow(w, 0, func(rec WorkflowRecord) { got = rec }); err != nil {
		t.Fatal(err)
	}
	res := p.Drain()
	if got.Invocations != 4 {
		t.Errorf("invocations=%d, want 4", got.Invocations)
	}
	// All four first-touch invocations are cold.
	if got.ColdStarts != 4 {
		t.Errorf("workflow cold starts=%d, want 4", got.ColdStarts)
	}
	// Makespan ≥ sum of stage critical paths:
	// resize(2+0.1) + classify(4+0.5) + store(1+0.05) = 7.65s.
	if got.Makespan() != 7650*time.Millisecond {
		t.Errorf("makespan=%v, want 7.65s", got.Makespan())
	}
	// Stage order: no store record may start before both classifies finish.
	var classifyFinish, storeStart time.Duration
	for _, r := range res.Records {
		if r.Function == "classify" && r.Finish > classifyFinish {
			classifyFinish = r.Finish
		}
		if r.Function == "store" {
			storeStart = r.Submit
		}
	}
	if storeStart < classifyFinish {
		t.Errorf("store submitted %v before classify finished %v", storeStart, classifyFinish)
	}
}

func TestWorkflowValidation(t *testing.T) {
	p, err := NewPlatformOn(sim.New(0), Config{}, testFunctions())
	if err != nil {
		t.Fatal(err)
	}
	bad := []Workflow{
		{Name: "empty"},
		{Name: "emptystage", Stages: [][]string{{}}},
		{Name: "unknown", Stages: [][]string{{"nope"}}},
	}
	for _, w := range bad {
		if err := p.SubmitWorkflow(w, 0, nil); err == nil {
			t.Errorf("workflow %q accepted", w.Name)
		}
	}
}

// The F5 headline: at low request rates cold starts dominate tail latency,
// and a keep-warm pool trades instance-seconds for latency.
func TestKeepWarmLatencyCostTradeoff(t *testing.T) {
	run := func(keepWarm int) *Result {
		p, err := NewPlatformOn(sim.New(7), Config{
			IdleTimeout: 30 * time.Second,
			KeepWarm:    keepWarm,
		}, []Function{
			{Name: "api", Exec: stats.Exponential{Rate: 10}, ColdStart: 3 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Sparse arrivals: one call every ~2 minutes for 2 hours.
		for i := 0; i < 60; i++ {
			p.Invoke(Invocation{Function: "api", At: time.Duration(i) * 2 * time.Minute}, nil)
		}
		return p.Drain()
	}
	cold := run(0)
	warm := run(1)
	if warm.P95Latency >= cold.P95Latency {
		t.Errorf("keep-warm p95 %v not below cold-pool p95 %v", warm.P95Latency, cold.P95Latency)
	}
	if warm.InstanceSeconds <= cold.InstanceSeconds {
		t.Errorf("keep-warm instance-seconds %v not above %v — no cost trade-off",
			warm.InstanceSeconds, cold.InstanceSeconds)
	}
}

func TestLayerEventsCoverAllFigure5Layers(t *testing.T) {
	p, err := NewPlatformOn(sim.New(1), Config{}, testFunctions())
	if err != nil {
		t.Fatal(err)
	}
	p.SubmitWorkflow(Workflow{Name: "w", Stages: [][]string{{"resize"}, {"store"}}}, 0, nil)
	res := p.Drain()
	for _, layer := range []string{LayerComposition, LayerManagement, LayerOrchestration, LayerResources} {
		if res.LayerEvents[layer] == 0 {
			t.Errorf("layer %q saw no events", layer)
		}
	}
}

func BenchmarkPlatform10kInvocations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := NewPlatformOn(sim.New(1), Config{}, []Function{
			{Name: "f", Exec: stats.Exponential{Rate: 5}, ColdStart: time.Second},
		})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10000; j++ {
			p.Invoke(Invocation{Function: "f", At: time.Duration(j) * 100 * time.Millisecond}, nil)
		}
		p.Drain()
	}
}

func TestFailureEvictsIdleInstanceAndGatesColdStarts(t *testing.T) {
	// One host slot. The warm instance left by the first call is evicted when
	// the slot fails; a call arriving during the outage queues until repair
	// restores capacity, then pays a fresh cold start.
	p, err := NewPlatformOn(sim.New(1), Config{IdleTimeout: time.Hour}, testFunctions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFailures([]failure.Event{
		{At: 10 * time.Second, Machines: []int{0}, Repair: 20 * time.Second},
	}, 1); err != nil {
		t.Fatal(err)
	}
	// Cold start 2s + exec 0.1s: idle from t=2.1 until the failure at t=10.
	if err := p.Invoke(Invocation{Function: "resize", At: 0}, nil); err != nil {
		t.Fatal(err)
	}
	// Arrives mid-outage: no warm pool, no up slot — queues until t=30.
	if err := p.Invoke(Invocation{Function: "resize", At: 15 * time.Second}, nil); err != nil {
		t.Fatal(err)
	}
	res := p.Drain()
	if len(res.Records) != 2 {
		t.Fatalf("records=%d, want 2", len(res.Records))
	}
	if res.FailureKills != 1 || res.FailureRestarts != 0 {
		t.Errorf("kills=%d restarts=%d, want 1/0", res.FailureKills, res.FailureRestarts)
	}
	rec := res.Records[1]
	if !rec.Cold {
		t.Error("post-outage call must cold start (warm pool was evicted)")
	}
	// Queued at 15, repair at 30, cold 2s + exec 0.1s → finish 32.1.
	if got := rec.Latency(); got != 17100*time.Millisecond {
		t.Errorf("latency=%v, want 17.1s", got)
	}
}

func TestFailureKillsInflightExecutionAndRedispatches(t *testing.T) {
	// The slot fails mid-execution: the run is aborted, the call re-enters
	// dispatch, waits out the outage, and completes after a second cold start.
	p, err := NewPlatformOn(sim.New(1), Config{IdleTimeout: time.Hour}, testFunctions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFailures([]failure.Event{
		// classify: cold 4s + exec 0.5s → in-flight over [4,4.5).
		{At: 4200 * time.Millisecond, Machines: []int{0}, Repair: 10 * time.Second},
	}, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke(Invocation{Function: "classify", At: 0}, nil); err != nil {
		t.Fatal(err)
	}
	res := p.Drain()
	if len(res.Records) != 1 {
		t.Fatalf("records=%d, want 1", len(res.Records))
	}
	if res.FailureKills != 1 || res.FailureRestarts != 1 {
		t.Errorf("kills=%d restarts=%d, want 1/1", res.FailureKills, res.FailureRestarts)
	}
	rec := res.Records[0]
	if !rec.Cold {
		t.Error("re-dispatched call must cold start")
	}
	// Submit 0, killed at 4.2, repair ends 14.2, cold 4s + exec 0.5s → 18.7.
	if got := rec.Latency(); got != 18700*time.Millisecond {
		t.Errorf("latency=%v, want 18.7s", got)
	}
}

func TestFailureFreePlatformIgnoresSlots(t *testing.T) {
	// InjectFailures with no slots is a no-op: the fast path stays in force.
	p, err := NewPlatformOn(sim.New(1), Config{}, testFunctions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFailures(nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke(Invocation{Function: "resize", At: 0}, nil); err != nil {
		t.Fatal(err)
	}
	res := p.Drain()
	if res.FailureKills != 0 || res.FailureRestarts != 0 {
		t.Errorf("kills=%d restarts=%d, want 0/0", res.FailureKills, res.FailureRestarts)
	}
}
