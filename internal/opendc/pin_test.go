package opendc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/failure"
	"mcs/internal/sched"
	"mcs/internal/workload"
)

// resultDigest hashes every number a datacenter report is built from: the
// energy and utilization aggregates, the event count, and every task
// record. Floats enter as their bit patterns, so the digest pins bit-exact
// results, not rounded ones.
func resultDigest(res *Result) string {
	h := sha256.New()
	u64 := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	f64(res.EnergyKWh)
	f64(res.Utilization)
	u64(res.SimulatedEvents)
	i64(int64(len(res.Records)))
	for _, r := range res.Records {
		i64(int64(r.Job))
		i64(int64(r.Task))
		i64(int64(len(r.User)))
		h.Write([]byte(r.User))
		for _, d := range []time.Duration{r.Submit, r.Ready, r.Start, r.Finish} {
			i64(int64(d))
		}
		i64(int64(r.Machine))
		i64(int64(r.Attempts))
		if r.Completed {
			u64(1)
		} else {
			u64(0)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func generated(t *testing.T, seed int64, cfg workload.GeneratorConfig) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestEngineResultsPinned pins the engine's results bit for bit on
// scenarios that, between them, reach every machine-state change the engine
// makes: allocation and release, failure and repair inside the horizon,
// sleep under a power policy and the wake that follows, on bag and DAG
// workloads, drained and with an explicit horizon, at default and
// non-default monitor intervals. Energy and utilization are integrated from
// the cluster's state at each of those changes, so any change to when or how
// the engine reads that state moves a digest.
func TestEngineResultsPinned(t *testing.T) {
	weibull := failure.CorrelatedModel(2*time.Hour, 10*time.Minute, 2)
	cases := []struct {
		name string
		sc   func(t *testing.T) *Scenario
		want string
	}{
		{
			name: "power-sleep-wake-horizon",
			sc: func(t *testing.T) *Scenario {
				return &Scenario{
					Cluster:  dcmodel.NewHomogeneous("c", 8, dcmodel.ClassCommodity, 8),
					Workload: sparseWorkload(),
					Power:    &PowerPolicy{IdleTimeout: 10 * time.Minute, WakeDelay: 30 * time.Second},
					Horizon:  7 * time.Hour,
					Seed:     1,
				}
			},
			want: "40a3ba882c29492de15491fc43f1fee85f3d19ebe91ac6c678201eadf267460a",
		},
		{
			name: "power-failures-drained",
			sc: func(t *testing.T) *Scenario {
				return &Scenario{
					Cluster: dcmodel.NewHomogeneous("c", 12, dcmodel.ClassCommodity, 4),
					Workload: generated(t, 3, workload.GeneratorConfig{
						Jobs: 80, Arrival: workload.Poisson{RatePerHour: 6},
					}),
					Failures:        weibull,
					Power:           &PowerPolicy{IdleTimeout: 5 * time.Minute, WakeDelay: 20 * time.Second},
					MonitorInterval: 45 * time.Second,
					Seed:            3,
				}
			},
			want: "0c61cafff8faa9cc94b19784559eb786f76d136ca0a3ff46e7781b57b28bc28b",
		},
		{
			name: "dag-failures-horizon",
			sc: func(t *testing.T) *Scenario {
				return &Scenario{
					Cluster: dcmodel.NewHomogeneous("c", 6, dcmodel.ClassCommodity, 3),
					Workload: generated(t, 4, workload.GeneratorConfig{
						Jobs: 40, Arrival: workload.Poisson{RatePerHour: 4}, Shape: workload.RandomDAG,
					}),
					Sched:           sched.Config{Queue: sched.SJF{}, Placement: sched.BestFit{}},
					Failures:        weibull,
					Horizon:         12 * time.Hour,
					MonitorInterval: 10 * time.Second,
					Seed:            4,
				}
			},
			want: "34e7f3f047dcdcc523d813ba74d71c83bdb604729096e2861a0f86590b894724",
		},
		{
			name: "bag-failures-day",
			sc: func(t *testing.T) *Scenario {
				return &Scenario{
					Cluster: dcmodel.NewHomogeneous("c", 16, dcmodel.ClassCommodity, 16),
					Workload: generated(t, 7, workload.GeneratorConfig{
						Jobs: 60, Arrival: workload.Poisson{RatePerHour: 20},
					}),
					Failures: failure.CorrelatedModel(4*time.Hour, 10*time.Minute, 1),
					Horizon:  24 * time.Hour,
					Seed:     7,
				}
			},
			want: "d30dcf5d39bfaf4c1fbc04282f54d3ed9a8311ab3f3004cd621091dc5812872a",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc(t)
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Failures != nil {
				repaired := false
				for _, fe := range res.FailureEvents {
					if fe.At+fe.Repair < res.FailureWindow {
						repaired = true
					}
				}
				if !repaired {
					t.Fatal("no repair falls inside the horizon; the scenario no longer reaches the repair path")
				}
			}
			if got := resultDigest(res); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
