package banking

import (
	"encoding/json"
	"runtime"
	"testing"

	"mcs/internal/scenario"
	"mcs/internal/sim"
)

func mallocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRunClearingSteadyStateAllocs pins the pipeline's allocation
// behavior along the churn axis: doubling the transaction count over the
// same pipeline roughly doubles the event count (admissions, service
// completions, zero-delay re-admissions) while the per-run allocations
// stay a fixed handful plus queue growth. The allocation delta between
// the two runs must be amortized-growth noise (queue doublings, the
// per-run arrival and latency columns), not per-event cost — admission
// shares one stream handler, completions fire through per-slot handlers
// built once per run, and queue pushes land in retained ring/heap arrays.
func TestRunClearingSteadyStateAllocs(t *testing.T) {
	txs := GenerateTransactions(60_000, 0.5, 101)
	half := txs[:30_000]

	run := func(in []Transaction) uint64 {
		k := sim.New(101)
		res, err := RunClearingOn(k, DefaultPipeline(), in, EDF)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != len(in) {
			t.Fatalf("completed %d of %d", res.Completed, len(in))
		}
		return k.Processed()
	}
	run(half) // warm process-global state

	var halfEvents, fullEvents uint64
	halfAllocs := mallocsDuring(func() { halfEvents = run(half) })
	fullAllocs := mallocsDuring(func() { fullEvents = run(txs) })
	extraEvents := fullEvents - halfEvents
	if extraEvents < 100_000 {
		t.Fatalf("doubling the workload added only %d events; too small to measure", extraEvents)
	}
	var extraAllocs uint64
	if fullAllocs > halfAllocs {
		extraAllocs = fullAllocs - halfAllocs
	}
	if perEvent := float64(extraAllocs) / float64(extraEvents); perEvent > 0.01 {
		t.Errorf("steady state allocates %.4f objects/event over %d extra events (half=%d full=%d allocs); want ~0",
			perEvent, extraEvents, halfAllocs, fullAllocs)
	}
}

// TestConfigureBytesPerTransaction bounds what a synthetic Configure
// allocates per transaction: the transaction column (32 B), ordered in
// place, with no job/task form built until an export asks for it.
func TestConfigureBytesPerTransaction(t *testing.T) {
	const n = 100_000
	doc := json.RawMessage(`{"kind": "banking", "seed": 3, "transactions": 100000, "instantShare": 0.5}`)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := scenario.New("banking", doc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	if perTx := float64(after.TotalAlloc-before.TotalAlloc) / n; perTx > 40 {
		t.Errorf("Configure allocates %.0f bytes per transaction, want ≤ 40", perTx)
	}
}

// TestRunClearingBytesPerTransaction bounds what an EDF clearing run
// allocates per transaction beside the column it clears: the arrival
// times the kernel stream reads and the latency sample (8 B each), the
// station queues with their growth, and the kernel's own event storage.
func TestRunClearingBytesPerTransaction(t *testing.T) {
	const n = 100_000
	txs := GenerateTransactions(n, 0.5, 3)
	k := sim.New(3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunClearingOn(k, DefaultPipeline(), txs, EDF)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d of %d", res.Completed, n)
	}
	if perTx := float64(after.TotalAlloc-before.TotalAlloc) / n; perTx > 32 {
		t.Errorf("an EDF run allocates %.0f bytes per transaction, want ≤ 32", perTx)
	}
}
