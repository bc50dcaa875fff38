package banking

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"time"

	"mcs/internal/sim"
	"mcs/internal/stats"
	"mcs/internal/workload"
)

// TestWorkloadFieldMapping pins the transaction↔workload contract that
// export/replay fidelity rests on: amounts ride MemoryMB, deadline classes
// ride User, and the reconstruction inverts the generation exactly.
func TestWorkloadFieldMapping(t *testing.T) {
	w := GenerateWorkload(500, 0.4, rand.New(rand.NewSource(7)))
	if len(w.Jobs) != 500 {
		t.Fatalf("jobs = %d", len(w.Jobs))
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("generated workload invalid: %v", err)
	}
	instant := 0
	for i := range w.Jobs {
		j := &w.Jobs[i]
		if len(j.Tasks) != 1 {
			t.Fatalf("job %d has %d tasks, want 1", j.ID, len(j.Tasks))
		}
		window := j.Deadline - j.Submit
		switch j.User {
		case "instant":
			instant++
			if window != 10*time.Second {
				t.Fatalf("instant job %d has window %v", j.ID, window)
			}
		case "standard":
			if window != time.Hour {
				t.Fatalf("standard job %d has window %v", j.ID, window)
			}
		default:
			t.Fatalf("job %d has class %q", j.ID, j.User)
		}
		if j.Tasks[0].Runtime != window {
			t.Fatalf("job %d runtime %v != window %v", j.ID, j.Tasks[0].Runtime, window)
		}
		if j.Tasks[0].MemoryMB < 1 {
			t.Fatalf("job %d carries amount %d", j.ID, j.Tasks[0].MemoryMB)
		}
	}
	if instant < 120 || instant > 280 {
		t.Errorf("instant count %d, want ≈200 of 500", instant)
	}

	txs := TransactionsFromWorkload(w)
	if len(txs) != len(w.Jobs) {
		t.Fatalf("reconstructed %d transactions from %d jobs", len(txs), len(w.Jobs))
	}
	for i, tx := range txs {
		j := &w.Jobs[i] // both sorted by arrival
		if tx.Arrive != j.Submit || tx.Deadline != j.Deadline || tx.Cents != int64(j.Tasks[0].MemoryMB) || tx.ID != int(j.ID) {
			t.Fatalf("transaction %d diverges from job: %+v vs %+v", i, tx, j)
		}
	}
}

// TestTransactionsFromWorkloadDefaults: jobs from foreign traces without
// tasks or amounts still reconstruct runnable transactions.
func TestTransactionsFromWorkloadDefaults(t *testing.T) {
	w := &workload.Workload{Jobs: []workload.Job{
		{ID: 2, Submit: 3 * time.Second, Deadline: 10 * time.Second},
		{ID: 1, Submit: time.Second, Deadline: 5 * time.Second,
			Tasks: []workload.Task{{ID: 1, Job: 1, Cores: 1, Runtime: time.Second}}},
	}}
	txs := TransactionsFromWorkload(w)
	if len(txs) != 2 {
		t.Fatalf("txs = %d", len(txs))
	}
	if txs[0].ID != 1 || txs[1].ID != 2 {
		t.Errorf("not resorted by arrival: %+v", txs)
	}
	for _, tx := range txs {
		if tx.Cents != 1 {
			t.Errorf("tx %d amount %d, want minimum 1", tx.ID, tx.Cents)
		}
	}
}

// generateWorkloadReference is GenerateWorkload as it was before
// synthesis filled preallocated columns, kept verbatim as the differential
// oracle: one Job with its own one-task slice per draw, then a stable sort
// by submit time.
func generateWorkloadReference(n int, instantShare float64, r *rand.Rand) *workload.Workload {
	day := 24 * time.Hour
	w := &workload.Workload{Jobs: make([]workload.Job, 0, n)}
	for i := 0; i < n; i++ {
		// Arrival: 80% spread diurnally, 20% in the 17:00–18:00 spike.
		var at time.Duration
		if r.Float64() < 0.2 {
			at = 17*time.Hour + time.Duration(r.Float64()*float64(time.Hour))
		} else {
			at = time.Duration(r.Float64() * float64(day))
		}
		ddl := standardDeadline
		class := "standard"
		if r.Float64() < instantShare {
			ddl = instantDeadline
			class = "instant"
		}
		cents := int64(stats.LogNormal{Mu: 8, Sigma: 1.5}.Sample(r))
		if cents < 1 {
			cents = 1
		}
		id := workload.JobID(i + 1)
		w.Jobs = append(w.Jobs, workload.Job{
			ID:       id,
			User:     class,
			Submit:   at,
			Deadline: at + ddl,
			Tasks: []workload.Task{{
				ID:       workload.TaskID(i + 1),
				Job:      id,
				Cores:    1,
				MemoryMB: int(cents),
				Runtime:  ddl,
			}},
		})
	}
	sort.SliceStable(w.Jobs, func(i, j int) bool { return w.Jobs[i].Submit < w.Jobs[j].Submit })
	return w
}

// fewValuesSource is a rand.Source that only ever yields one of eight
// fixed 63-bit values, so every Float64 draw takes one of eight values and
// submit times collide constantly — the regime where the (Submit, ID)
// tie-break must reproduce the stable sort's draw order.
type fewValuesSource struct {
	vals [8]int64
	pick *rand.Rand
}

func newFewValuesSource(seed int64) *fewValuesSource {
	s := &fewValuesSource{pick: rand.New(rand.NewSource(seed))}
	for i := range s.vals {
		s.vals[i] = s.pick.Int63()
	}
	return s
}

func (s *fewValuesSource) Int63() int64 { return s.vals[s.pick.Intn(len(s.vals))] }
func (s *fewValuesSource) Seed(int64)   {}

// TestGenerateWorkloadMatchesReference: the column-filling synthesis yields
// exactly the old job-at-a-time workload — same RNG draws, same order
// (including same-instant ties), same IDs, same field values — across
// sizes, deadline mixes, seeds, and a tie-heavy source.
func TestGenerateWorkloadMatchesReference(t *testing.T) {
	for _, source := range []struct {
		name string
		src  func(seed int64) rand.Source
	}{
		{"uniform", func(seed int64) rand.Source { return rand.NewSource(seed) }},
		{"tie-heavy", func(seed int64) rand.Source { return newFewValuesSource(seed) }},
	} {
		name, src := source.name, source.src
		for _, n := range []int{0, 1, 2, 1000, 50_000} {
			for _, share := range []float64{0, 0.5, 1} {
				for _, seed := range []int64{1, 7, 42} {
					t.Run(fmt.Sprintf("%s/n=%d/share=%v/seed=%d", name, n, share, seed), func(t *testing.T) {
						want := generateWorkloadReference(n, share, rand.New(src(seed)))
						got := GenerateWorkload(n, share, rand.New(src(seed)))
						if !reflect.DeepEqual(got, want) {
							for i := range want.Jobs {
								if i >= len(got.Jobs) || !reflect.DeepEqual(got.Jobs[i], want.Jobs[i]) {
									t.Fatalf("job %d diverges from the reference", i)
								}
							}
							t.Fatalf("workload diverges from the reference (%d vs %d jobs)", len(got.Jobs), len(want.Jobs))
						}
					})
				}
			}
		}
	}
}

// TestGenerateWorkloadAllocsConstant: synthesis allocates a fixed number
// of objects (the job and task columns, the workload) whatever the
// transaction count — no allocation per job. The collector is paused for
// the probe: its background work is counted as mallocs too and would make
// the two sizes differ by noise.
func TestGenerateWorkloadAllocsConstant(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			GenerateWorkload(n, 0.5, rand.New(rand.NewSource(3)))
		})
	}
	small, large := allocs(10_000), allocs(40_000)
	if small != large || large > 8 {
		t.Errorf("GenerateWorkload allocates %.0f objects at n=10k and %.0f at n=40k; want the same small constant", small, large)
	}
}

// TestTransactionsFromWorkloadStableOrder: same-instant arrivals keep
// their workload order, whether the stream is already in arrival order
// (no re-sort) or not (stable re-sort).
func TestTransactionsFromWorkloadStableOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		jobs []workload.Job
		want []int
	}{
		{"sorted", []workload.Job{{ID: 3, Submit: time.Second}, {ID: 1, Submit: time.Second}, {ID: 2, Submit: time.Second}, {ID: 4, Submit: 2 * time.Second}}, []int{3, 1, 2, 4}},
		{"unsorted", []workload.Job{{ID: 4, Submit: 2 * time.Second}, {ID: 3, Submit: time.Second}, {ID: 1, Submit: time.Second}, {ID: 2, Submit: time.Second}}, []int{3, 1, 2, 4}},
	} {
		txs := TransactionsFromWorkload(&workload.Workload{Jobs: tc.jobs})
		for i, id := range tc.want {
			if txs[i].ID != id {
				t.Fatalf("%s: order = %+v, want IDs %v", tc.name, txs, tc.want)
			}
		}
	}
}

// inDrawOrder builds a transaction column in draw order, as
// generateTransactions does before ordering it: ID i+1 at index i.
func inDrawOrder(arrivals []time.Duration) []Transaction {
	txs := make([]Transaction, len(arrivals))
	for i, at := range arrivals {
		txs[i] = Transaction{ID: i + 1, Arrive: at, Deadline: at + time.Second}
	}
	return txs
}

// checkOrderMatchesStableSort fails when orderTransactions orders txs
// other than a stable comparison sort on arrival does.
func checkOrderMatchesStableSort(t *testing.T, name string, txs []Transaction) {
	t.Helper()
	want := slices.Clone(txs)
	slices.SortStableFunc(want, func(a, b Transaction) int { return cmp.Compare(a.Arrive, b.Arrive) })
	orderTransactions(txs)
	if !slices.Equal(txs, want) {
		t.Errorf("%s: in-place order diverges from the stable sort", name)
	}
}

// TestOrderTransactionsMatchesStableSort: the in-place (Arrive, ID) order
// of a column built in draw order is exactly the stable sort on arrival —
// ties in draw order — on tie-heavy columns, arrivals at zero, the largest
// non-negative arrival, one-digit ranges, the smallest sizes and sizes
// around the comparison-sort cutoff, and spike-heavy days.
func TestOrderTransactionsMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	draw := func(n int, at func() time.Duration) []time.Duration {
		arrivals := make([]time.Duration, n)
		for i := range arrivals {
			arrivals[i] = at()
		}
		return arrivals
	}
	day := func() time.Duration { return time.Duration(r.Int63n(int64(24 * time.Hour))) }
	cases := map[string][]time.Duration{
		"empty":         nil,
		"one":           {time.Hour},
		"two-equal":     {time.Second, time.Second},
		"two-reversed":  {2, 1},
		"cutoff+1":      draw(radixCutoff+1, day),
		"33":            draw(33, day),
		"all-zero":      draw(1000, func() time.Duration { return 0 }),
		"all-equal":     draw(1000, func() time.Duration { return 17 * time.Hour }),
		"zero-and-max":  draw(1000, func() time.Duration { return time.Duration(r.Intn(2)) * math.MaxInt64 }),
		"duplicates":    draw(5000, func() time.Duration { return time.Duration(r.Intn(8)) * time.Minute }),
		"one-digit":     draw(5000, func() time.Duration { return time.Duration(r.Intn(1 << radixBits)) }),
		"day":           draw(20_000, day),
		"full-range":    draw(5000, func() time.Duration { return time.Duration(r.Int63()) }),
		"shared-prefix": draw(5000, func() time.Duration { return 17*time.Hour + time.Duration(r.Intn(64)) }),
		"spike": draw(20_000, func() time.Duration {
			if r.Intn(2) == 0 {
				return 17*time.Hour + time.Duration(r.Intn(1000))*time.Microsecond
			}
			return day()
		}),
	}
	for name, arrivals := range cases {
		checkOrderMatchesStableSort(t, name, inDrawOrder(arrivals))
	}
}

// FuzzOrderTransactions: for any non-negative arrivals, the in-place order
// equals the stable sort on arrival. Each 8-byte chunk of data is one
// arrival, its top bit cleared, shifted right by shift: a large shift
// folds the arrivals onto few values, so ties and shared prefixes are
// common.
func FuzzOrderTransactions(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0, 0, 0x3f, 0xff, 1, 2, 3, 4}, 40), uint8(20))
	f.Add(bytes.Repeat([]byte{0xff, 0x01, 0x80, 0x00, 0x7f, 0x10, 0x00, 0xaa}, 300), uint8(55))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		arrivals := make([]time.Duration, len(data)/8)
		for i := range arrivals {
			arrivals[i] = time.Duration(binary.BigEndian.Uint64(data[8*i:]) >> 1 >> (shift % 64))
		}
		checkOrderMatchesStableSort(t, "fuzz", inDrawOrder(arrivals))
	})
}

// TestGenerateWorkloadArrivalsNonNegative pins the invariant orderTransactions
// relies on: every synthesized arrival lies in [0, 24h), under both the
// uniform and the tie-heavy source.
func TestGenerateWorkloadArrivalsNonNegative(t *testing.T) {
	for _, src := range []rand.Source{rand.NewSource(9), newFewValuesSource(9)} {
		for _, j := range GenerateWorkload(20_000, 0.5, rand.New(src)).Jobs {
			if j.Submit < 0 || j.Submit >= 24*time.Hour {
				t.Fatalf("job %d arrives at %v, outside [0, 24h)", j.ID, j.Submit)
			}
		}
	}
}

// TestWorkloadFromTransactionsRoundTrip: the workload form inverts back to
// exactly the transaction column it was built from, across seeds, sizes
// and deadline mixes — so replaying an export clears the same stream.
func TestWorkloadFromTransactionsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000, 20_000} {
		for _, share := range []float64{0, 0.5, 1} {
			for _, seed := range []int64{1, 7, 42} {
				txs := GenerateTransactions(n, share, seed)
				got := TransactionsFromWorkload(WorkloadFromTransactions(txs))
				if !slices.Equal(got, txs) {
					t.Fatalf("n=%d share=%v seed=%d: round trip diverges", n, share, seed)
				}
			}
		}
	}
}

// TestGenerateTransactionsMatchesReference: the transaction column is the
// reference workload's stream — same draws, order, IDs and amounts — under
// the RNG that sim.New(seed) hands its models.
func TestGenerateTransactionsMatchesReference(t *testing.T) {
	for _, n := range []int{1, 1000, 30_000} {
		for _, share := range []float64{0, 0.3, 1} {
			for _, seed := range []int64{5, 9} {
				want := TransactionsFromWorkload(generateWorkloadReference(n, share, sim.New(seed).Rand()))
				if got := GenerateTransactions(n, share, seed); !slices.Equal(got, want) {
					t.Fatalf("n=%d share=%v seed=%d: stream diverges from the reference", n, share, seed)
				}
			}
		}
	}
}

// TestGenerateTransactionsAllocsConstant: drawing the transaction column
// allocates a fixed number of objects (RNG, keys, amounts, the column)
// whatever the transaction count.
func TestGenerateTransactionsAllocsConstant(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { GenerateTransactions(n, 0.5, 3) })
	}
	small, large := allocs(10_000), allocs(40_000)
	if small != large || large > 8 {
		t.Errorf("GenerateTransactions allocates %.0f objects at n=10k and %.0f at n=40k; want the same small constant", small, large)
	}
}
