package banking

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcs/internal/sim"
	"mcs/internal/stats"
	"mcs/internal/trace"
)

func fastPipeline() []Stage {
	return []Stage{
		{Name: "validate", Servers: 2, ServiceSeconds: stats.Deterministic{Value: 1}},
		{Name: "settle", Servers: 1, ServiceSeconds: stats.Deterministic{Value: 2}},
	}
}

func TestRunClearingLatencyOfUnloadedPipeline(t *testing.T) {
	txs := []Transaction{{ID: 1, Arrive: 0, Deadline: 10 * time.Second}}
	res, err := RunClearingOn(sim.New(1), fastPipeline(), txs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.DeadlineMiss != 0 {
		t.Fatalf("%+v", res)
	}
	if res.MeanLatency != 3*time.Second {
		t.Errorf("latency=%v, want 3s", res.MeanLatency)
	}
}

func TestRunClearingDetectsMisses(t *testing.T) {
	// Settlement is a 2s single server; five simultaneous transactions with
	// 4s deadlines: the later ones must miss.
	var txs []Transaction
	for i := 0; i < 5; i++ {
		txs = append(txs, Transaction{ID: i + 1, Arrive: 0, Deadline: 4 * time.Second})
	}
	res, err := RunClearingOn(sim.New(1), fastPipeline(), txs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5 {
		t.Fatalf("completed=%d", res.Completed)
	}
	if res.DeadlineMiss == 0 {
		t.Error("no misses detected under overload")
	}
	if res.MeanLateness <= 0 {
		t.Error("lateness not measured")
	}
	if res.MaxQueueDepth == 0 {
		t.Error("queue depth not tracked")
	}
}

// The §6.4 headline: EDF meets more mixed-deadline transactions than FCFS
// under the same load.
func TestEDFBeatsFCFSOnMixedDeadlines(t *testing.T) {
	txs := GenerateTransactions(3000, 0.5, 3)
	fcfs, err := RunClearingOn(sim.New(3), DefaultPipeline(), txs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	edf, err := RunClearingOn(sim.New(3), DefaultPipeline(), txs, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if fcfs.Completed != len(txs) || edf.Completed != len(txs) {
		t.Fatalf("transactions lost: %d/%d of %d", fcfs.Completed, edf.Completed, len(txs))
	}
	if edf.MissRate > fcfs.MissRate {
		t.Errorf("EDF miss rate %v above FCFS %v", edf.MissRate, fcfs.MissRate)
	}
}

func TestRunClearingValidation(t *testing.T) {
	if _, err := RunClearingOn(sim.New(1), nil, nil, FCFS); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := RunClearingOn(sim.New(1), []Stage{{Name: "x"}}, nil, FCFS); err == nil {
		t.Error("misconfigured stage accepted")
	}
	res, err := RunClearingOn(sim.New(1), fastPipeline(), nil, FCFS)
	if err != nil || res.Completed != 0 {
		t.Errorf("empty workload: %v %+v", err, res)
	}
}

// TestRunClearingFailsOnExhaustedBudget: a run that hits the event budget
// before every transaction settles leaves sim.ErrBudget on its kernel, so
// the code that owns the kernel reports no partial result; a budget that
// covers the stream leaves none.
func TestRunClearingFailsOnExhaustedBudget(t *testing.T) {
	txs := GenerateTransactions(2000, 0.5, 11)
	k := sim.New(11)
	k.SetMaxEvents(1000)
	res, err := RunClearingOn(k, DefaultPipeline(), txs, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(k.Err(), sim.ErrBudget) || res.Completed == len(txs) {
		t.Fatalf("truncated run: kernel error %v, %d of %d transactions settled", k.Err(), res.Completed, len(txs))
	}
	k = sim.New(11)
	k.SetMaxEvents(1_000_000)
	if res, err := RunClearingOn(k, DefaultPipeline(), txs, EDF); err != nil || k.Err() != nil || res.Completed != len(txs) {
		t.Fatalf("run within budget: %v %v %+v", err, k.Err(), res)
	}
}

// TestCheckClearingSizeBounds: a run indexes transactions with int32
// handles and numbers a station's EDF pushes in 32 bits, so the stream
// length, and the length plus the event budget, must fit; the bounds are
// checked on plain integers, without building such a stream.
func TestCheckClearingSizeBounds(t *testing.T) {
	for _, tc := range []struct {
		n      int
		budget uint64
		want   string // "" for accepted
	}{
		{0, 20_000_000, ""},
		{math.MaxInt32, 1 << 31, ""},
		{math.MaxInt32 + 1, 0, "exceed"},
		{math.MaxInt64, 20_000_000, "exceed"},
		{math.MaxInt32, 1<<31 + 1, "overflow"},
		{1, math.MaxUint32, "overflow"},
		{0, math.MaxUint32, ""},
	} {
		err := checkClearingSize(tc.n, tc.budget)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("n=%d budget=%d refused: %v", tc.n, tc.budget, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("n=%d budget=%d: error %v, want one naming %q", tc.n, tc.budget, err, tc.want)
		}
	}
	// RunClearingOn applies the bound, under its kernel's budget, before
	// it schedules anything.
	k := sim.New(1)
	k.SetMaxEvents(math.MaxUint32)
	if res, err := RunClearingOn(k, DefaultPipeline(), GenerateTransactions(1, 0.5, 1), EDF); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("run past the bound: %v %+v", err, res)
	}
	if k.Pending() != 0 {
		t.Errorf("refused run left %d events scheduled", k.Pending())
	}
}

// TestConfigureRejectsStreamsOverBudget: a stream longer than the event
// budget can settle — five events per transaction at least, its arrival
// and one completion per stage — is refused in Configure, before
// synthesis or a run, whether it is synthesized or loaded from a trace;
// one at the bound is accepted.
func TestConfigureRejectsStreamsOverBudget(t *testing.T) {
	const budget = 5000
	limit := budget / (1 + len(DefaultPipeline()))
	dir := t.TempDir()
	for _, n := range []int{limit, limit + 1} {
		synthetic := fmt.Sprintf(`{"kind": "banking", "seed": 4, "transactions": %d}`, n)
		path := filepath.Join(dir, fmt.Sprintf("stream-%d.mcw", n))
		if err := trace.WriteFile(path, trace.FormatMCW, GenerateWorkload(n, 0.5, rand.New(rand.NewSource(4)))); err != nil {
			t.Fatal(err)
		}
		replay := fmt.Sprintf(`{"kind": "banking", "seed": 4, "workload": {"trace": %q}}`, path)
		for name, doc := range map[string]string{"synthetic": synthetic, "trace": replay} {
			b := &bankingScenario{}
			err := b.configure(json.RawMessage(doc), budget)
			switch {
			case n <= limit && err != nil:
				t.Errorf("%s stream of %d (bound %d) refused: %v", name, n, limit, err)
			case n > limit && (err == nil || !strings.Contains(err.Error(), "event budget")):
				t.Errorf("%s stream of %d (bound %d): error %v, want an event-budget refusal", name, n, limit, err)
			case n > limit && b.txs != nil:
				t.Errorf("%s stream of %d refused after it was materialized", name, n)
			}
		}
	}
	// Configure bounds a stream by the kernel's budget, sim.EventBudget.
	over := fmt.Sprintf(`{"kind": "banking", "transactions": %d}`, sim.EventBudget/(1+len(DefaultPipeline()))+1)
	if err := (&bankingScenario{}).Configure(json.RawMessage(over)); err == nil || !strings.Contains(err.Error(), "event budget") {
		t.Errorf("stream over sim.EventBudget: error %v, want an event-budget refusal", err)
	}
}

func TestGenerateTransactions(t *testing.T) {
	txs := GenerateTransactions(2000, 0.3, 9)
	if len(txs) != 2000 {
		t.Fatalf("n=%d", len(txs))
	}
	instant := 0
	spike := 0
	for i, tx := range txs {
		if i > 0 && tx.Arrive < txs[i-1].Arrive {
			t.Fatal("transactions not sorted")
		}
		if tx.Cents < 1 {
			t.Fatal("non-positive amount")
		}
		if tx.Deadline-tx.Arrive == 10*time.Second {
			instant++
		}
		if tx.Arrive >= 17*time.Hour && tx.Arrive < 18*time.Hour {
			spike++
		}
	}
	share := float64(instant) / float64(len(txs))
	if share < 0.25 || share > 0.35 {
		t.Errorf("instant share=%v, want ≈0.3", share)
	}
	// End-of-business spike: the 17:00 hour holds far more than 1/24 of load.
	if float64(spike)/float64(len(txs)) < 0.15 {
		t.Errorf("spike share=%v, want ≥0.15", float64(spike)/float64(len(txs)))
	}
	if (FCFS).String() == "" || (EDF).String() == "" || QueueDiscipline(9).String() == "" {
		t.Error("discipline names")
	}
}

func TestClearingDeterministicPerSeed(t *testing.T) {
	txs := GenerateTransactions(500, 0.5, 4)
	a, err := RunClearingOn(sim.New(5), DefaultPipeline(), txs, EDF)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunClearingOn(sim.New(5), DefaultPipeline(), txs, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if a.MissRate != b.MissRate || a.MeanLatency != b.MeanLatency {
		t.Error("same-seed clearing runs diverge")
	}
}

func BenchmarkClearingDay(b *testing.B) {
	txs := GenerateTransactions(5000, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunClearingOn(sim.New(1), DefaultPipeline(), txs, EDF); err != nil {
			b.Fatal(err)
		}
	}
}
