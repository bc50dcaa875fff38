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
	"testing/quick"
	"time"

	"mcs/internal/sim"
	"mcs/internal/stats"
	"mcs/internal/trace"
)

func TestLedgerOpenAndTransfer(t *testing.T) {
	l := NewLedger()
	if err := l.Open("alice", 1000); err != nil {
		t.Fatal(err)
	}
	if err := l.Open("bob", 500); err != nil {
		t.Fatal(err)
	}
	if err := l.Transfer("alice", "bob", 300); err != nil {
		t.Fatal(err)
	}
	a, _ := l.Balance("alice")
	b, _ := l.Balance("bob")
	if a != 700 || b != 800 {
		t.Errorf("balances %d/%d, want 700/800", a, b)
	}
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if len(l.Entries()) != 1 {
		t.Error("entry log wrong")
	}
}

func TestLedgerRejections(t *testing.T) {
	l := NewLedger()
	if err := l.Open("a", -1); !errors.Is(err, ErrBadAmount) {
		t.Errorf("negative opening: %v", err)
	}
	l.Open("a", 100)
	if err := l.Open("a", 0); err == nil {
		t.Error("duplicate account accepted")
	}
	l.Open("b", 0)
	if err := l.Transfer("a", "b", 0); !errors.Is(err, ErrBadAmount) {
		t.Errorf("zero transfer: %v", err)
	}
	if err := l.Transfer("a", "b", 101); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("overdraft: %v", err)
	}
	if err := l.Transfer("ghost", "b", 1); !errors.Is(err, ErrUnknownAccount) {
		t.Errorf("unknown from: %v", err)
	}
	if err := l.Transfer("a", "ghost", 1); !errors.Is(err, ErrUnknownAccount) {
		t.Errorf("unknown to: %v", err)
	}
	if _, err := l.Balance("ghost"); !errors.Is(err, ErrUnknownAccount) {
		t.Errorf("unknown balance: %v", err)
	}
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerSelfTransferRejected(t *testing.T) {
	l := NewLedger()
	a, err := l.OpenAccount("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Transfer("a", "a", 10); !errors.Is(err, ErrSelfTransfer) {
		t.Errorf("self transfer by id: %v", err)
	}
	if err := l.TransferBetween(a, a, 10); !errors.Is(err, ErrSelfTransfer) {
		t.Errorf("self transfer by handle: %v", err)
	}
	if got, _ := l.Balance("a"); got != 100 {
		t.Errorf("balance changed to %d by rejected self transfer", got)
	}
	if len(l.Entries()) != 0 {
		t.Errorf("self transfer logged %d entries, want none", len(l.Entries()))
	}
	// A bad amount outranks the self check, matching Transfer's order.
	if err := l.TransferBetween(a, a, 0); !errors.Is(err, ErrBadAmount) {
		t.Errorf("zero self transfer: %v", err)
	}
}

func TestLedgerHandleAPI(t *testing.T) {
	l := NewLedger()
	a, err := l.OpenAccount("alice", 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.OpenAccount("bob", 500)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := l.Handle("alice"); err != nil || got != a {
		t.Fatalf("Handle(alice) = %v, %v; want %v", got, err, a)
	}
	if _, err := l.Handle("ghost"); !errors.Is(err, ErrUnknownAccount) {
		t.Errorf("unknown handle lookup: %v", err)
	}
	if got := l.ID(b); got != "bob" {
		t.Errorf("ID(%v) = %q", b, got)
	}
	l.Grow(4)
	if err := l.TransferBetween(a, b, 300); err != nil {
		t.Fatal(err)
	}
	if got := l.BalanceOf(a); got != 700 {
		t.Errorf("BalanceOf(a) = %d, want 700", got)
	}
	if got := l.BalanceOf(b); got != 800 {
		t.Errorf("BalanceOf(b) = %d, want 800", got)
	}
	if err := l.TransferBetween(a, Account(99), 1); !errors.Is(err, ErrUnknownAccount) {
		t.Errorf("out-of-range to handle: %v", err)
	}
	if err := l.TransferBetween(Account(-1), b, 1); !errors.Is(err, ErrUnknownAccount) {
		t.Errorf("negative from handle: %v", err)
	}
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	entries := l.Entries()
	if len(entries) != 1 || entries[0] != (Entry{From: "alice", To: "bob", Cents: 300}) {
		t.Errorf("entries = %+v", entries)
	}
}

// Property: conservation holds under arbitrary transfer sequences, accepted
// or rejected.
func TestLedgerConservationProperty(t *testing.T) {
	prop := func(seed int64, ops []uint16) bool {
		r := rand.New(rand.NewSource(seed))
		l := NewLedger()
		accounts := []AccountID{"a", "b", "c", "d"}
		for _, id := range accounts {
			if err := l.Open(id, int64(r.Intn(10000))); err != nil {
				return false
			}
		}
		want := l.Total()
		for _, op := range ops {
			from := accounts[int(op)%len(accounts)]
			to := accounts[int(op/7)%len(accounts)]
			amount := int64(op%997) - 100 // includes invalid amounts
			_ = l.Transfer(from, to, amount)
			if l.Total() != want || l.CheckConservation() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}

func fastPipeline() []Stage {
	return []Stage{
		{Name: "validate", Servers: 2, ServiceSeconds: stats.Deterministic{Value: 1}},
		{Name: "settle", Servers: 1, ServiceSeconds: stats.Deterministic{Value: 2}},
	}
}

func TestRunClearingLatencyOfUnloadedPipeline(t *testing.T) {
	txs := []Transaction{{ID: 1, Arrive: 0, Deadline: 10 * time.Second}}
	res, err := RunClearing(fastPipeline(), txs, FCFS, 1)
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
	res, err := RunClearing(fastPipeline(), txs, FCFS, 1)
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
	fcfs, err := RunClearing(DefaultPipeline(), txs, FCFS, 3)
	if err != nil {
		t.Fatal(err)
	}
	edf, err := RunClearing(DefaultPipeline(), txs, EDF, 3)
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
	if _, err := RunClearing(nil, nil, FCFS, 1); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := RunClearing([]Stage{{Name: "x"}}, nil, FCFS, 1); err == nil {
		t.Error("misconfigured stage accepted")
	}
	res, err := RunClearing(fastPipeline(), nil, FCFS, 1)
	if err != nil || res.Completed != 0 {
		t.Errorf("empty workload: %v %+v", err, res)
	}
}

// TestRunClearingFailsOnExhaustedBudget: a run that hits the event budget
// before every transaction settles returns an error naming the events
// fired and transactions settled, never a partial report.
func TestRunClearingFailsOnExhaustedBudget(t *testing.T) {
	defer func(b uint64) { clearingEventBudget = b }(clearingEventBudget)
	clearingEventBudget = 1000
	txs := GenerateTransactions(2000, 0.5, 11)
	res, err := RunClearing(DefaultPipeline(), txs, EDF, 11)
	if err == nil {
		t.Fatalf("truncated run returned a report: %+v", res)
	}
	for _, want := range []string{"after 1000 events", "of 2000 transactions settled"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	clearingEventBudget = 1_000_000
	if res, err := RunClearing(DefaultPipeline(), txs, EDF, 11); err != nil || res.Completed != len(txs) {
		t.Fatalf("run within budget: %v %+v", err, res)
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
	// RunClearingOn applies the bound before it schedules anything.
	defer func(b uint64) { clearingEventBudget = b }(clearingEventBudget)
	clearingEventBudget = math.MaxUint32
	k := sim.New(1)
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
	defer func(b uint64) { clearingEventBudget = b }(clearingEventBudget)
	clearingEventBudget = 5000
	limit := int(clearingEventBudget) / (1 + len(DefaultPipeline()))
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
			err := b.Configure(json.RawMessage(doc))
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
	a, err := RunClearing(DefaultPipeline(), txs, EDF, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunClearing(DefaultPipeline(), txs, EDF, 5)
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
		if _, err := RunClearing(DefaultPipeline(), txs, EDF, 1); err != nil {
			b.Fatal(err)
		}
	}
}
