package banking

import (
	"fmt"
	"time"

	"mcs/internal/sim"
	"mcs/internal/stats"
)

// This file simulates the PSD2-style clearing pipeline of §6.4: payment
// transactions flow through a fixed pipeline of processing stages
// (validation → fraud screening → clearing → settlement), each a multi-
// server station, under regulatory completion deadlines. The experiment
// compares deadline-aware (EDF) against deadline-oblivious (FCFS) queueing —
// the paper's point (iii): "making resource management and scheduling a key
// building block, capable of ensuring ... deadlines".
//
// The hot path is columnar (the PR 8 scheme gaming and social use): a
// transaction in flight is an int32 handle into struct-of-arrays columns
// (arrive/deadline/cents/stage), its per-handle completion closure is built
// once and recycled with the handle through a free list, per-stage queues
// are a FIFO ring (FCFS) or a 4-ary index min-heap (EDF — see queues.go
// for the tie-break argument), and arrivals are admitted as one sorted
// kernel stream. A steady-state event — service completion, queue pull,
// next-stage hand-off — therefore allocates nothing; the columns grow to
// the peak number of in-flight transactions, not the workload size.

// Stage is one station of the clearing pipeline.
type Stage struct {
	Name    string
	Servers int
	// ServiceSeconds draws per-transaction service times.
	ServiceSeconds stats.Dist
}

// DefaultPipeline returns the four-stage pipeline used by the §6.4
// experiments.
func DefaultPipeline() []Stage {
	return []Stage{
		{Name: "validation", Servers: 4, ServiceSeconds: stats.Truncate{D: stats.LogNormal{Mu: -1.2, Sigma: 0.5}, Lo: 0.05, Hi: 5}},
		{Name: "fraud-screening", Servers: 6, ServiceSeconds: stats.Truncate{D: stats.LogNormal{Mu: -0.3, Sigma: 0.8}, Lo: 0.1, Hi: 30}},
		{Name: "clearing", Servers: 4, ServiceSeconds: stats.Truncate{D: stats.LogNormal{Mu: -0.7, Sigma: 0.5}, Lo: 0.1, Hi: 10}},
		{Name: "settlement", Servers: 2, ServiceSeconds: stats.Truncate{D: stats.LogNormal{Mu: -0.9, Sigma: 0.4}, Lo: 0.05, Hi: 5}},
	}
}

// Transaction is one payment moving through the pipeline.
type Transaction struct {
	ID     int
	Arrive time.Duration
	// Deadline is the absolute completion bound (PSD2-style target).
	Deadline time.Duration
	Cents    int64
}

// QueueDiscipline selects the per-stage queueing order.
type QueueDiscipline int

// Queue disciplines.
const (
	FCFS QueueDiscipline = iota + 1
	// EDF serves the transaction with the earliest deadline first.
	EDF
)

// String implements fmt.Stringer.
func (d QueueDiscipline) String() string {
	switch d {
	case FCFS:
		return "fcfs"
	case EDF:
		return "edf"
	default:
		return "discipline?"
	}
}

// ClearingResult aggregates a pipeline run.
type ClearingResult struct {
	Completed     int
	DeadlineMiss  int
	MissRate      float64
	MeanLatency   time.Duration
	P95Latency    time.Duration
	MeanLateness  time.Duration // over missed transactions only
	MaxQueueDepth int
}

// station is one pipeline stage's runtime state. The queue structures hold
// handles, and readmit parks the handles whose zero-delay re-admission
// event is in flight, so the shared per-station handler needs no closure
// per pull (the kernel fires same-station re-admits in schedule order, the
// order readmit preserves).
type station struct {
	busy     int
	cap      int
	svc      stats.Dist
	fifo     handleRing
	edf      edfHeap
	readmit  handleRing
	readmitH sim.Handler
}

// clearingEventBudget caps the kernel events one clearing run may fire
// (a run fires ~7–8 per transaction, so about 2.5M transactions fit); a
// run that exhausts it fails rather than report on the transactions
// settled so far.
var clearingEventBudget uint64 = 20_000_000

// RunClearing pushes the transactions through the pipeline under the given
// discipline and returns latency/deadline statistics. Transactions must be
// sorted by arrival time (GenerateTransactions and TransactionsFromWorkload
// both emit them sorted).
func RunClearing(pipeline []Stage, txs []Transaction, disc QueueDiscipline, seed int64) (*ClearingResult, error) {
	return RunClearingOn(sim.New(seed), pipeline, txs, disc)
}

// RunClearingOn runs the pipeline on a caller-provided kernel — the entry
// point used by the scenario registry, where the runner owns the kernel.
func RunClearingOn(k *sim.Kernel, pipeline []Stage, txs []Transaction, disc QueueDiscipline) (*ClearingResult, error) {
	if len(pipeline) == 0 {
		return nil, fmt.Errorf("banking: empty pipeline")
	}
	for _, st := range pipeline {
		if st.Servers <= 0 || st.ServiceSeconds == nil {
			return nil, fmt.Errorf("banking: stage %q misconfigured", st.Name)
		}
	}
	stations := make([]station, len(pipeline))
	for i, st := range pipeline {
		stations[i] = station{cap: st.Servers, svc: st.ServiceSeconds}
	}
	res := &ClearingResult{}

	// Transaction columns, indexed by handle. A handle is live from arrival
	// to settlement and then recycled; completion statistics fold into the
	// accumulators below at settlement time, in completion order — the same
	// order (and float arithmetic) the old done-list post-pass used.
	var (
		arrive   []time.Duration
		deadline []time.Duration
		cents    []int64
		stage    []int32
		finishH  []sim.Handler
		free     []int32
	)
	lats := make([]float64, 0, len(txs))
	var latenessSum time.Duration

	var serveOrQueue func(si int, h int32)
	serve := func(si int, h int32) {
		st := &stations[si]
		st.busy++
		svc := st.svc.Sample(k.Rand())
		if svc < 0.001 {
			svc = 0.001
		}
		k.AfterFunc(time.Duration(svc*float64(time.Second)), finishH[h])
	}
	serveOrQueue = func(si int, h int32) {
		st := &stations[si]
		if st.busy < st.cap {
			serve(si, h)
			return
		}
		var depth int
		if disc == EDF {
			st.edf.push(h, deadline[h])
			depth = st.edf.len()
		} else {
			st.fifo.push(h)
			depth = st.fifo.len()
		}
		if depth > res.MaxQueueDepth {
			res.MaxQueueDepth = depth
		}
	}
	// stageDone is the body of every per-handle completion closure: free
	// the server, pull the next queued transaction per discipline, advance
	// (or settle) this transaction.
	stageDone := func(h int32, now sim.Time) {
		si := int(stage[h])
		st := &stations[si]
		st.busy--
		// The pull's re-admission stays a zero-delay kernel event rather
		// than a direct dispatch: Result envelopes expose the event count
		// (the golden backlog captures carry ~143k re-admit events in their
		// 893014 totals), so dropping the event would be observable.
		if disc == EDF {
			if st.edf.len() > 0 {
				st.readmit.push(st.edf.pop())
				k.AfterFunc(0, st.readmitH)
			}
		} else {
			if st.fifo.len() > 0 {
				st.readmit.push(st.fifo.pop())
				k.AfterFunc(0, st.readmitH)
			}
		}
		stage[h]++
		if int(stage[h]) == len(stations) {
			res.Completed++
			lat := now - arrive[h]
			lats = append(lats, lat.Seconds())
			if deadline[h] > 0 && now > deadline[h] {
				res.DeadlineMiss++
				latenessSum += now - deadline[h]
			}
			free = append(free, h)
			return
		}
		serveOrQueue(si+1, h)
	}
	// alloc hands out a transaction handle, reusing a freed one when
	// available. The completion closure is built once per handle and
	// recycled with it, so a steady-state service event carries no
	// allocation; exactly one event references a handle at any moment
	// (in service, queued, or awaiting re-admission), which is what makes
	// settlement-time recycling sound.
	alloc := func() int32 {
		if n := len(free); n > 0 {
			h := free[n-1]
			free = free[:n-1]
			return h
		}
		h := int32(len(stage))
		arrive = append(arrive, 0)
		deadline = append(deadline, 0)
		cents = append(cents, 0)
		stage = append(stage, 0)
		finishH = append(finishH, nil)
		finishH[h] = func(now sim.Time) { stageDone(h, now) }
		return h
	}
	for i := range stations {
		si := i
		st := &stations[i]
		st.readmitH = func(sim.Time) { serveOrQueue(si, st.readmit.pop()) }
	}

	// Admit the arrival stream: one sorted kernel stream sharing a single
	// handler and a cursor — zero per-arrival allocation, with firing order
	// identical to scheduling each transaction in turn (same contiguous
	// sequence block; see sim.ScheduleStream).
	at := make([]sim.Time, len(txs))
	for i := range txs {
		at[i] = txs[i].Arrive
	}
	cursor := 0
	admit := func(sim.Time) {
		tx := &txs[cursor]
		cursor++
		h := alloc()
		arrive[h] = tx.Arrive
		deadline[h] = tx.Deadline
		cents[h] = tx.Cents
		stage[h] = 0
		serveOrQueue(0, h)
	}
	if err := k.ScheduleStream(at, admit); err != nil {
		return nil, fmt.Errorf("banking: schedule arrivals: %w", err)
	}
	k.SetMaxEvents(clearingEventBudget)
	fired := k.Run()
	if res.Completed < len(txs) {
		return nil, fmt.Errorf("banking: event budget of %d exhausted after %d events with %d of %d transactions settled",
			clearingEventBudget, fired, res.Completed, len(txs))
	}

	if res.Completed == 0 {
		return res, nil
	}
	res.MissRate = float64(res.DeadlineMiss) / float64(res.Completed)
	res.MeanLatency = time.Duration(stats.Mean(lats) * float64(time.Second))
	res.P95Latency = time.Duration(stats.Quantile(lats, 0.95) * float64(time.Second))
	if res.DeadlineMiss > 0 {
		res.MeanLateness = latenessSum / time.Duration(res.DeadlineMiss)
	}
	return res, nil
}
