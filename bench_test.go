package mcs_test

// This file holds the repository's gated benchmarks: the kernel, the
// federation, and the per-engine rungs, each pinned in BENCH_BASELINE.json
// and checked by cmd/benchguard in CI. The paper's experiments are not
// benchmarks: examples/paper holds the document-driven ones (pinned in the
// golden corpus) and cmd/mcsbench prints the rest.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mcs/internal/banking"
	"mcs/internal/dcmodel"
	"mcs/internal/federation"
	"mcs/internal/gaming"
	_ "mcs/internal/opendc"
	"mcs/internal/scenario"
	"mcs/internal/sim"
	"mcs/internal/workload"
)

// BenchmarkKernelThroughput measures raw kernel event throughput with a
// fleet of self-rescheduling actors — the access pattern every ecosystem
// model produces. Each actor's handler is built once, so the rungs measure
// the kernel and not the allocator (-benchmem reads 0 allocs per event).
// The "schedule" variant uses the handle-returning API; the "afterfunc"
// variant uses the fire-and-forget fast path with short millisecond
// delays on a shallow heap; "afterfunc-far" keeps about a million events
// pending, so every event is a push and a pop on a deep heap. The
// events/sec metric is the headline number tracked across kernel changes
// (see CHANGES.md for the recorded history).
func BenchmarkKernelThroughput(b *testing.B) {
	bench := func(b *testing.B, k *sim.Kernel, actors int, base sim.Time, schedule func(k *sim.Kernel, delay sim.Time, fn sim.Handler)) {
		handlers := make([]sim.Handler, actors)
		for id := range handlers {
			delay := base + sim.Time(id%7+1)*sim.Time(time.Millisecond)
			handlers[id] = func(sim.Time) { schedule(k, delay, handlers[id]) }
		}
		for i, h := range handlers {
			schedule(k, base+sim.Time(i)*sim.Time(time.Microsecond), h)
		}
		k.SetMaxEvents(uint64(b.N))
		b.ResetTimer()
		k.Run()
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	}
	mustSchedule := func(k *sim.Kernel, delay sim.Time, fn sim.Handler) { k.MustSchedule(delay, fn) }
	afterFunc := func(k *sim.Kernel, delay sim.Time, fn sim.Handler) { k.AfterFunc(delay, fn) }
	b.Run("schedule", func(b *testing.B) {
		bench(b, sim.New(42), 256, 0, mustSchedule)
	})
	b.Run("afterfunc", func(b *testing.B) {
		bench(b, sim.New(42), 256, 0, afterFunc)
	})
	b.Run("afterfunc-far", func(b *testing.B) {
		bench(b, sim.New(42), 1<<20, 300*sim.Time(time.Millisecond), afterFunc)
	})
}

// BenchmarkFederationMultiSite measures one federated run end to end on an
// eight-site document — the intra-run parallelism gate. Every site carries
// its own workload (local-only routing keeps the shards balanced), so the
// run decomposes into eight equal per-site kernels. parallel=1 is the
// sequential path the federation always had; parallel=4 shards the site
// kernels across the bounded pool (internal/par via sim.PartitionedRun).
// On a multi-core host the parallel=1 : parallel=4 ns/op ratio is the
// intra-run speedup; both variants are pinned in BENCH_BASELINE.json so
// benchguard catches a regression in either path. The two variants produce
// deeply equal results by the pool-size-invariance contract
// (TestRunPoolSizeInvariance, and the pool mode of TestDeterminismContract).
func BenchmarkFederationMultiSite(b *testing.B) {
	const numSites = 8
	sites := make([]federation.Site, numSites)
	for i := range sites {
		r := rand.New(rand.NewSource(500 + int64(i)))
		w, err := workload.Generate(workload.GeneratorConfig{
			Jobs:    250,
			Arrival: workload.Poisson{RatePerHour: 900},
		}, r)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("site-%d", i)
		sites[i] = federation.Site{
			Name:    name,
			Cluster: dcmodel.NewHomogeneous(name, 4, dcmodel.ClassCommodity, 8),
			Local:   w.Jobs,
		}
	}
	for _, parallel := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			cfg := federation.Config{Seed: 21, Parallel: parallel}
			for i := 0; i < b.N; i++ {
				res, err := federation.Run(sites, federation.LocalOnly, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed == 0 {
					b.Fatal("no jobs completed")
				}
			}
		})
	}
}

// liveHeapMB is the peak-RSS proxy the million-entity benchmarks report:
// the live heap after a full GC, with the run's result (and thus the whole
// scenario state) still referenced. Unlike the process high-water mark it is
// order-independent across benchmarks sharing one process, which is what a
// regression ratchet needs; it tracks exactly the per-entity state the
// columnar refactor is accountable for.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	mb := float64(m.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(keep)
	return mb
}

// BenchmarkGamingMillionSessions runs the virtual world at the north star's
// scale: one million player sessions through the columnar engine (~3.4M
// kernel events — arrivals, departures, zone moves, monitor ticks). The
// session workload is generated once outside the timer; each iteration is a
// fresh kernel replaying it. events/sec and the live-heap peak-RSS proxy are
// pinned in BENCH_BASELINE.json and gated by benchguard in CI.
func BenchmarkGamingMillionSessions(b *testing.B) {
	cfg := gaming.WorldConfig{
		Zones:            64,
		ZoneCapacity:     500,
		ArrivalPerHour:   42000,
		DiurnalAmp:       0.5,
		MoveEveryMinutes: 30,
		Horizon:          24 * time.Hour,
		Seed:             99,
	}
	w, err := gaming.GenerateSessions(cfg, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		b.Fatal(err)
	}
	if len(w.Jobs) < 900_000 {
		b.Fatalf("generated %d sessions, want ~1M", len(w.Jobs))
	}
	cfg.Workload = w
	var events uint64
	var res *gaming.WorldResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.New(cfg.Seed)
		r, err := gaming.RunWorldOn(k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.PlayersServed < 900_000 {
			b.Fatalf("served %d players, want ~1M", r.PlayersServed)
		}
		events += k.Processed()
		res = r
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(liveHeapMB(res), "peakRSS-MB")
}

// BenchmarkBankingMillionTransactions pushes one million payment
// transactions through the four-stage clearing pipeline under each queue
// discipline — the banking counterpart of the million-entity gates. The
// workload is generated once outside the timer; each iteration replays it
// on a fresh kernel through the pipeline (index handles into the
// transaction column, per-slot completion handlers, ring/4-ary-heap
// queues, streamed admission). events/sec counts every kernel
// event (admissions, service completions, zero-delay re-admissions);
// peakRSS-MB is the live-heap proxy with the workload and result still
// referenced. Both are pinned in BENCH_BASELINE.json and gated by
// benchguard in CI; EDF's heap keeps it within ~2× FCFS's ring at this
// scale (the old linear scan was quadratic in backlog depth).
func BenchmarkBankingMillionTransactions(b *testing.B) {
	txs := banking.GenerateTransactions(1_000_000, 0.5, 77)
	for _, disc := range []banking.QueueDiscipline{banking.FCFS, banking.EDF} {
		b.Run(disc.String(), func(b *testing.B) {
			var events uint64
			var res *banking.ClearingResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := sim.New(77)
				r, err := banking.RunClearingOn(k, banking.DefaultPipeline(), txs, disc)
				if err != nil {
					b.Fatal(err)
				}
				if r.Completed != len(txs) {
					b.Fatalf("completed %d of %d transactions", r.Completed, len(txs))
				}
				events += k.Processed()
				res = r
			}
			b.StopTimer()
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(liveHeapMB([]any{txs, res}), "peakRSS-MB")
		})
	}
}

// BenchmarkBankingGenerateWorkload times banking's transaction synthesis
// at the size of the perfbench clearing document (300k transactions, half
// instant) — the set-up phase BenchmarkBankingMillionTransactions keeps
// outside its timer. Each iteration draws, sorts and materializes the
// whole workload from a fresh RNG; ns/op is pinned in BENCH_BASELINE.json
// and gated by benchguard in CI.
func BenchmarkBankingGenerateWorkload(b *testing.B) {
	const n = 300_000
	for i := 0; i < b.N; i++ {
		w := banking.GenerateWorkload(n, 0.5, rand.New(rand.NewSource(int64(i)+1)))
		if len(w.Jobs) != n {
			b.Fatalf("generated %d jobs, want %d", len(w.Jobs), n)
		}
	}
}

// bankingClearingDoc is the perfbench clearing document at seed 7.
const bankingClearingDoc = `{"kind": "banking", "seed": 7, "transactions": 300000, "instantShare": 0.5, "discipline": "edf"}`

// BenchmarkBankingConfigure times banking's set-up on the perfbench
// clearing document: each iteration configures the scenario through the
// registry, synthesizing the 300k-transaction column. peakRSS-MB is the
// live-heap proxy with the configured scenario still referenced — the
// footprint a run starts from. Both are pinned in BENCH_BASELINE.json and
// gated by benchguard in CI.
func BenchmarkBankingConfigure(b *testing.B) {
	var s scenario.Scenario
	for i := 0; i < b.N; i++ {
		var err error
		if s, err = scenario.New("banking", json.RawMessage(bankingClearingDoc)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(liveHeapMB(s), "peakRSS-MB")
}

// datacenterCellDoc is the base document of the perfbench campaign sweep:
// one cell of its 480, whose 86,400 s horizon under the default 30 s monitor
// makes monitor ticks most of the cell's kernel events.
const datacenterCellDoc = `{"kind": "datacenter", "machines": 16, "class": "commodity", "rackSize": 16,
  "workload": {"jobs": 60, "pattern": "bursty", "shape": "bag"},
  "scheduler": {"queue": "fcfs", "placement": "bestfit", "mode": "easy"},
  "failures": {"mtbf": {"dist": "weibull", "shape": 0.6, "mean": 14400}, "repair": {"dist": "lognormal", "mean": 600}},
  "horizonSeconds": 86400}`

// BenchmarkDatacenterCell is the datacenter engine's rung: each iteration
// configures and runs one campaign cell through the scenario registry, the
// path a sweep or a dist worker takes per cell. ns/op is pinned in
// BENCH_BASELINE.json and gated by benchguard in CI; events/sec counts
// every kernel event of the cell.
func BenchmarkDatacenterCell(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		s, err := scenario.New("datacenter", json.RawMessage(datacenterCellDoc))
		if err != nil {
			b.Fatal(err)
		}
		res, err := scenario.RunScenario(s, 7)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics["completed"] == 0 {
			b.Fatal("no tasks completed")
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSocialMillionUsers lives in internal/social (it holds the
// columnar engine state live for the peak-RSS measure); the CI bench job
// runs both million-entity benchmarks under the same benchguard gate.
