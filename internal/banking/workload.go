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
// straight into its transaction column: transaction i is the i-th draw,
// with ID i+1, and orderTransactions then puts the column in arrival
// order in place. Synthesis allocates the column and nothing else.
func generateTransactions(n int, instantShare float64, r *rand.Rand) []Transaction {
	day := 24 * time.Hour
	txs := make([]Transaction, n)
	for i := range txs {
		// Arrival: 80% spread diurnally, 20% in the 17:00–18:00 spike.
		var at time.Duration
		if r.Float64() < 0.2 {
			at = 17*time.Hour + time.Duration(r.Float64()*float64(time.Hour))
		} else {
			at = time.Duration(r.Float64() * float64(day))
		}
		ddl := standardDeadline
		if r.Float64() < instantShare {
			ddl = instantDeadline
		}
		cents := int64(stats.LogNormal{Mu: 8, Sigma: 1.5}.Sample(r))
		if cents < 1 {
			cents = 1
		}
		txs[i] = Transaction{ID: i + 1, Arrive: at, Deadline: at + ddl, Cents: cents}
	}
	orderTransactions(txs)
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

// radixBits is the digit width of orderTransactions: a 64-entry count per
// level, at most eight levels over a day in nanoseconds (47 bits). On a
// 300k column, 6-bit digits sorted in ~22 ms, 8-bit in ~32 ms and 11-bit
// in ~50 ms (2-vCPU Xeon): every bucket is a write frontier the permuting
// pass touches at random.
const radixBits = 6

// radixCutoff is the bucket size at or below which orderTransactions
// finishes with an insertion sort.
const radixCutoff = 64

// orderTransactions sorts txs in place by the total key (Arrive, ID). For
// a column whose IDs ascend in index order, as generateTransactions draws
// it, that is exactly the stable sort on Arrive — same-instant
// transactions keep draw order — so the sort itself need not be stable:
// an in-place MSD radix ("American flag") sort on the arrival bits, each
// bucket of at most radixCutoff finished by an insertion sort on the full
// key, and a larger bucket of one arrival by a sort on ID.
//
// Invariant: every Arrive is non-negative (generateTransactions draws
// them in [0, 24h)), so its bits read as unsigned digits order the
// transactions as the signed values do.
func orderTransactions(txs []Transaction) {
	var hi time.Duration
	for i := range txs {
		hi = max(hi, txs[i].Arrive)
	}
	sortArrivalBits(txs, bits.Len64(uint64(hi)))
}

// sortArrivalBits orders txs, whose arrivals agree on every bit at or
// above width, by (Arrive, ID). A digit every transaction shares is
// skipped without a pass that moves anything.
func sortArrivalBits(txs []Transaction, width int) {
	for len(txs) > radixCutoff && width > 0 {
		digit := min(width, radixBits)
		width -= digit
		shift, mask := uint(width), uint64(1)<<digit-1
		var next, end [1 << radixBits]int
		for i := range txs {
			end[uint64(txs[i].Arrive)>>shift&mask]++
		}
		if end[uint64(txs[0].Arrive)>>shift&mask] == len(txs) {
			continue
		}
		// Bucket d spans [next[d], end[d]); next[d] advances past the
		// transactions already placed in it.
		sum := 0
		for d := range end[:mask+1] {
			next[d] = sum
			sum += end[d]
			end[d] = sum
		}
		for d := range end[:mask+1] {
			for next[d] < end[d] {
				x := txs[next[d]]
				for e := uint64(x.Arrive) >> shift & mask; e != uint64(d); e = uint64(x.Arrive) >> shift & mask {
					x, txs[next[e]] = txs[next[e]], x
					next[e]++
				}
				txs[next[d]] = x
				next[d]++
			}
		}
		start := 0
		for d := range end[:mask+1] {
			sortArrivalBits(txs[start:end[d]], width)
			start = end[d]
		}
		return
	}
	if width == 0 {
		// One arrival: the order is by ID alone.
		slices.SortFunc(txs, func(a, b Transaction) int { return cmp.Compare(a.ID, b.ID) })
		return
	}
	for i := 1; i < len(txs); i++ {
		x := txs[i]
		j := i
		for ; j > 0 && (x.Arrive < txs[j-1].Arrive || x.Arrive == txs[j-1].Arrive && x.ID < txs[j-1].ID); j-- {
			txs[j] = txs[j-1]
		}
		txs[j] = x
	}
}

// TransactionsFromWorkload reconstructs the transaction stream from its
// workload form (see the field mapping above). Jobs without tasks get the
// minimum amount; a stream not already in arrival order is stably
// re-sorted by arrival, the order RunClearingOn requires, so hand-built or
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
