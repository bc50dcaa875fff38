package banking

// The transaction stream as a first-class workload: one single-task job
// per payment, which puts banking on the workload-source layer next to
// datacenter, faas, and gaming — synthesize from the document seed or
// replay a trace file, export what ran, and replay the export to a
// byte-identical result (the service times the pipeline draws from the
// kernel RNG are dynamics whose order the transaction stream fixes).
//
// Field mapping (the trace schema has no payments vocabulary, so the
// generic columns carry the stream exactly):
//
//	Job.ID       → Transaction.ID
//	Job.Submit   → Transaction.Arrive
//	Job.Deadline → Transaction.Deadline (absolute, PSD2-style)
//	Job.User     → deadline class ("instant" / "standard"), a label that
//	               keeps exported traces human-readable
//	Task.Runtime → the regulatory service window (Deadline − Arrive);
//	               per-stage service demand is drawn at clearing time
//	Task.MemoryMB→ the amount in integer cents — pipeline stages demand no
//	               memory, so the schema's free integer column preserves
//	               amounts across export/replay
//
// mcw stores integer nanoseconds, so the round trip is exact; gwf rounds
// times to milliseconds and is therefore lossy for this stream too.

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"mcs/internal/stats"
	"mcs/internal/workload"
)

// Deadline classes of the PSD2-style mix.
const (
	instantDeadline  = 10 * time.Second
	standardDeadline = time.Hour
)

// GenerateWorkload synthesizes the PSD2-style daily transaction stream as
// a workload: diurnal arrivals with an end-of-business clearing spike
// (17:00–18:00 holds 20% of the day), lognormal amounts, and an
// instantShare mix of instant (10s deadline) versus same-hour (1h)
// payments. Jobs come out sorted by submit time, same-instant jobs in
// draw order, and IDs are draw index + 1.
//
// It is the workload form of generateTransactions' stream — one
// synthesis, mapped through WorkloadFromTransactions — so the job view an
// export writes and the transactions a run clears cannot diverge.
func GenerateWorkload(n int, instantShare float64, r *rand.Rand) *workload.Workload {
	return WorkloadFromTransactions(generateTransactions(n, instantShare, r))
}

// generateTransactions draws the stream GenerateWorkload describes,
// straight into its transaction column.
//
// Synthesis draws into pointer-free columns — an {arrival, draw index}
// key per transaction and its amount with the deadline class packed in —
// orders the keys with a stable radix sort on arrival, and only then
// fills the transactions, already in order. The allocation count is
// constant in n.
func generateTransactions(n int, instantShare float64, r *rand.Rand) []Transaction {
	day := 24 * time.Hour
	// One allocation holds the keys and the radix sort's scratch half.
	keyBuf := make([]arrivalKey, 2*n)
	keys := keyBuf[:n]
	amounts := make([]uint64, n) // cents, with instantClass set for instant payments
	for i := range keys {
		// Arrival: 80% spread diurnally, 20% in the 17:00–18:00 spike.
		var at time.Duration
		if r.Float64() < 0.2 {
			at = 17*time.Hour + time.Duration(r.Float64()*float64(time.Hour))
		} else {
			at = time.Duration(r.Float64() * float64(day))
		}
		var class uint64
		if r.Float64() < instantShare {
			class = instantClass
		}
		cents := int64(stats.LogNormal{Mu: 8, Sigma: 1.5}.Sample(r))
		if cents < 1 {
			cents = 1
		}
		keys[i] = arrivalKey{at: at, draw: i}
		amounts[i] = uint64(cents) | class
	}
	keys = sortByArrival(keys, keyBuf[n:])

	txs := make([]Transaction, n)
	for k, key := range keys {
		amount := amounts[key.draw]
		ddl := standardDeadline
		if amount&instantClass != 0 {
			ddl = instantDeadline
		}
		txs[k] = Transaction{
			ID:       key.draw + 1,
			Arrive:   key.at,
			Deadline: key.at + ddl,
			Cents:    int64(amount &^ instantClass),
		}
	}
	return txs
}

// WorkloadFromTransactions is the inverse of TransactionsFromWorkload
// (see the field mapping above), exact on every stream that function
// returns — arrival-ordered, amounts of at least one cent: one
// single-task job per transaction, in stream order, every job's Tasks a
// cap-1 window of one shared task slice. The deadline class is read from
// the service window — instant when Deadline − Arrive is the instant
// deadline, standard otherwise.
func WorkloadFromTransactions(txs []Transaction) *workload.Workload {
	jobs := make([]workload.Job, len(txs))
	tasks := make([]workload.Task, len(txs))
	for k := range txs {
		tx := &txs[k]
		window, class := tx.Deadline-tx.Arrive, "standard"
		if window == instantDeadline {
			class = "instant"
		}
		id := workload.JobID(tx.ID)
		// Stored field by field: a Task literal is built in a temporary
		// and block-copied, which cost ~10% of building this form.
		t := &tasks[k]
		t.ID, t.Job, t.Cores = workload.TaskID(tx.ID), id, 1
		t.MemoryMB, t.Runtime = int(tx.Cents), window
		jobs[k] = workload.Job{
			ID:       id,
			User:     class,
			Submit:   tx.Arrive,
			Deadline: tx.Deadline,
			Tasks:    tasks[k : k+1 : k+1],
		}
	}
	return &workload.Workload{Jobs: jobs}
}

// instantClass marks an instant payment in generateTransactions' amount
// column. Amounts are positive int64 cents, so the top bit is free.
const instantClass = 1 << 63

// arrivalKey is one drawn transaction's sort key: its arrival time and
// its position in draw order.
type arrivalKey struct {
	at   time.Duration
	draw int
}

// radixDigitBits bounds the digit width of sortByArrival's passes: 12
// bits sort a day in nanoseconds (47 bits) in four passes over a 32 KB
// count array.
const radixDigitBits = 12

// sortByArrival orders keys on at with a stable LSD radix sort and
// returns the sorted slice, which is either keys or buf (scratch of the
// same length). Equal arrivals keep their input order, so keys drawn in
// draw order come out exactly in (at, draw) order.
//
// Invariant: every at is non-negative (generateTransactions draws
// at ∈ [0, 24h)), so its bits read as unsigned digits order the keys as
// the signed values do. The passes cover only the bits of the largest
// key, with digits of equal width up to radixDigitBits, and a pass whose
// digit is the same for every key is skipped.
func sortByArrival(keys, buf []arrivalKey) []arrivalKey {
	var hi time.Duration
	for _, k := range keys {
		hi = max(hi, k.at)
	}
	width := bits.Len64(uint64(hi))
	if width == 0 {
		return keys
	}
	passes := (width + radixDigitBits - 1) / radixDigitBits
	digit := uint((width + passes - 1) / passes)
	mask := uint64(1)<<digit - 1
	var counts [1 << radixDigitBits]int
	count := counts[:mask+1]
	src, dst := keys, buf[:len(keys)]
	for shift := uint(0); shift < uint(width); shift += digit {
		clear(count)
		for _, k := range src {
			count[uint64(k.at)>>shift&mask]++
		}
		if count[uint64(src[0].at)>>shift&mask] == len(src) {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := uint64(k.at) >> shift & mask
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}

// TransactionsFromWorkload reconstructs the transaction stream from its
// workload form (see the field mapping above). Jobs without tasks get the
// minimum amount; a stream not already in arrival order is stably
// re-sorted by arrival, the order RunClearing requires, so hand-built or
// converted traces need no pre-sorting.
func TransactionsFromWorkload(w *workload.Workload) []Transaction {
	txs := make([]Transaction, 0, len(w.Jobs))
	for i := range w.Jobs {
		j := &w.Jobs[i]
		cents := int64(1)
		if len(j.Tasks) > 0 && j.Tasks[0].MemoryMB > 0 {
			cents = int64(j.Tasks[0].MemoryMB)
		}
		txs = append(txs, Transaction{
			ID:       int(j.ID),
			Arrive:   j.Submit,
			Deadline: j.Deadline,
			Cents:    cents,
		})
	}
	byArrival := func(a, b Transaction) int { return cmp.Compare(a.Arrive, b.Arrive) }
	if !slices.IsSortedFunc(txs, byArrival) {
		slices.SortStableFunc(txs, byArrival)
	}
	return txs
}

// GenerateTransactions draws the PSD2-style daily stream (see
// GenerateWorkload) in transaction form, from an RNG seeded with seed —
// the stream the kernel RNG of sim.New(seed) would yield.
func GenerateTransactions(n int, instantShare float64, seed int64) []Transaction {
	return generateTransactions(n, instantShare, rand.New(rand.NewSource(seed)))
}
