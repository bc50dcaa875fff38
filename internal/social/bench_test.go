package social

import (
	"encoding/json"
	"runtime"
	"testing"

	"mcs/internal/sim"
	"mcs/internal/workload"
)

// liveHeapMB is the peak-RSS proxy the million-entity benchmark reports:
// the live heap after a full GC, with the workload and the columnar graph
// state still referenced. Unlike the process high-water mark it is
// order-independent across benchmarks sharing one process, which is what a
// regression ratchet needs.
func liveHeapMB(keep ...any) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	mb := float64(m.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(keep)
	return mb
}

// BenchmarkSocialMillionUsers exercises the columnar path at the north
// star's scale: one million submissions over a one-million-user population —
// workload generation from the kernel RNG (exactly as the scenario Run
// does), the streamed co-occurrence replay into the PairGraph, and rank-based
// label propagation. events/sec counts kernel events (one per submission).
// Together with BenchmarkGamingMillionSessions (root bench_test.go) the
// events/sec and peak-RSS numbers are pinned in BENCH_BASELINE.json and
// gated by benchguard in CI.
func BenchmarkSocialMillionUsers(b *testing.B) {
	s := &socialScenario{}
	err := s.Configure(json.RawMessage(`{
		"kind": "social",
		"jobs": 1000000, "users": 1000000, "userSkew": 1.2,
		"pattern": "poisson", "windowSeconds": 300,
		"communityIterations": 4, "seed": 11
	}`))
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	var keepGraph *PairGraph
	var keepWorkload *workload.Workload
	var keepLabels []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.New(11)
		gen := workload.DefaultGeneratorConfig()
		gen.Jobs = s.cfg.Jobs
		gen.Users = s.cfg.Users
		gen.UserSkew = s.cfg.UserSkew
		gen.Arrival = s.arrival
		w, err := workload.Generate(gen, k.Rand())
		if err != nil {
			b.Fatal(err)
		}
		g, names, err := s.buildPairGraphOn(k, w)
		if err != nil {
			b.Fatal(err)
		}
		rank := g.RankByName(func(id int32) string { return names[id] })
		labels := g.Communities(s.cfg.CommunityIterations, rank)
		if k.Processed() != 1_000_000 {
			b.Fatalf("processed %d events, want 1M (one per submission)", k.Processed())
		}
		if g.NumEdges() == 0 {
			b.Fatal("empty tie graph")
		}
		events += k.Processed()
		keepGraph, keepWorkload, keepLabels = g, w, labels
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(liveHeapMB(keepGraph, keepWorkload, keepLabels), "peakRSS-MB")
}
