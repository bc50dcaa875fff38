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
	"math/rand"
	"slices"
	"time"

	"mcs/internal/sim"
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
// draw order.
//
// Synthesis fills two preallocated columns in draw order — the jobs, and
// one shared task slice of which every job's Tasks is a cap-1 window — so
// the allocation count is constant in n. The jobs are then sorted on
// (Submit, ID): IDs are unique and follow draw order, so the unstable sort
// yields exactly the order a stable sort on submit time would.
func GenerateWorkload(n int, instantShare float64, r *rand.Rand) *workload.Workload {
	day := 24 * time.Hour
	jobs := make([]workload.Job, n)
	tasks := make([]workload.Task, n)
	for i := range jobs {
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
		tasks[i] = workload.Task{
			ID:       workload.TaskID(i + 1),
			Job:      id,
			Cores:    1,
			MemoryMB: int(cents),
			Runtime:  ddl,
		}
		jobs[i] = workload.Job{
			ID:       id,
			User:     class,
			Submit:   at,
			Deadline: at + ddl,
			Tasks:    tasks[i : i+1 : i+1],
		}
	}
	slices.SortFunc(jobs, func(a, b workload.Job) int {
		if c := cmp.Compare(a.Submit, b.Submit); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return &workload.Workload{Jobs: jobs}
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

// GenerateTransactions draws the PSD2-style daily workload in transaction
// form — the historical entry point, now a reroute through the workload
// generator so the programmatic API and the scenario adapter share one
// model of the stream.
func GenerateTransactions(n int, instantShare float64, seed int64) []Transaction {
	k := sim.New(seed) // reuse the kernel's deterministic RNG
	return TransactionsFromWorkload(GenerateWorkload(n, instantShare, k.Rand()))
}
