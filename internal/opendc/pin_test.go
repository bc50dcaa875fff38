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
	"mcs/internal/stats"
	"mcs/internal/workload"
)

// resultDigest hashes every number a datacenter report is built from: the
// energy and utilization aggregates, the event count, every task record,
// and the points of all four monitoring series. Floats enter as their bit
// patterns, so the digest pins bit-exact results, not rounded ones.
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
	for _, ts := range []*stats.TimeSeries{res.QueueLenSeries, res.DemandSeries, res.RunningSeries, res.UtilizationSeries} {
		pts := ts.Points()
		i64(int64(len(pts)))
		for _, p := range pts {
			i64(int64(p.T))
			f64(p.V)
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
			want: "55fb801ad1f33288b39ccadd8f7ac06399dcb823b8755e53af29a2961de7c7ca",
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
			want: "67f5b9a5c230fa4cfc01add1b1867c5435efe1eaefdacee502774f20311afa2d",
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
			want: "dc47572557c3a0a71eb0e338c3f4fb7510956fabf0a622e0a4a15639f539b6c3",
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
			want: "c39ff486979c8d2602c4b0bfcaf38c8f0b51e6f21dc51b088d2ddc7ae2321157",
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
