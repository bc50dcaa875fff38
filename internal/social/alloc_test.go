package social

import (
	"math/rand"
	"runtime"
	"testing"

	"encoding/json"

	"mcs/internal/sim"
	"mcs/internal/workload"
)

func mallocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestBuildPairGraphSteadyStateAllocs pins the columnar replay loop: once
// the interning table, the window ring, and the tie table are at size,
// processing a submission event allocates nothing. Doubling the job count
// over the same population must cost amortized-growth noise, not per-event
// allocations.
func TestBuildPairGraphSteadyStateAllocs(t *testing.T) {
	gen := workload.DefaultGeneratorConfig()
	gen.Jobs = 40_000
	gen.Users = 64
	w, err := workload.Generate(gen, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	half := &workload.Workload{Jobs: w.Jobs[:len(w.Jobs)/2]}

	s := &socialScenario{}
	if err := s.Configure(json.RawMessage(`{"windowSeconds": 120}`)); err != nil {
		t.Fatal(err)
	}
	run := func(wl *workload.Workload) {
		if _, _, err := s.buildPairGraphOn(sim.New(1), wl); err != nil {
			t.Fatal(err)
		}
	}
	run(half) // warm any process-global state

	halfAllocs := mallocsDuring(func() { run(half) })
	fullAllocs := mallocsDuring(func() { run(w) })
	extraEvents := len(w.Jobs) - len(half.Jobs)
	var extraAllocs uint64
	if fullAllocs > halfAllocs {
		extraAllocs = fullAllocs - halfAllocs
	}
	if perEvent := float64(extraAllocs) / float64(extraEvents); perEvent > 0.01 {
		t.Errorf("steady state allocates %.4f objects/event over %d extra events (half=%d full=%d allocs); want ~0",
			perEvent, extraEvents, halfAllocs, fullAllocs)
	}
}
