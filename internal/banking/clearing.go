// Package banking models the future-of-banking ecosystem of paper §6.4: a
// PSD2-style clearing pipeline in which payment transactions must complete
// within regulatory deadlines — "PSD2 enforces strict performance targets,
// including deadlines in clearing financial transactions". The pipeline
// runs under deadline-aware (EDF) or deadline-oblivious (FCFS) queueing and
// is registered as the "banking" scenario kind.
//
// The hot state is columnar (the struct-of-arrays scheme gaming and social
// use, DESIGN.md "Columnar scenario state"): an in-flight transaction is an
// integer handle into the run's transaction column, per-stage queues are
// handle rings and 4-ary heaps (queues.go), and a steady-state event — a
// service completion, a queue pull — allocates nothing. The alloc probes
// and BenchmarkBankingMillionTransactions pin this at 1M transactions.
package banking

import (
	"fmt"
	"math"
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
// The hot path works on the caller's transaction column in place: a
// transaction in flight is its int32 index into txs, a station's server
// slot records which transaction it serves, and every completion fires
// through its slot's handler, built once per run. Per-stage queues are a
// FIFO ring (FCFS) or a 4-ary min-heap of 16-byte entries (EDF — see
// queues.go for the tie-break argument), and arrivals are admitted as one
// sorted kernel stream. Beside the column, a run allocates the arrival
// times the stream reads, the latency sample, and its queues; a steady-
// state event — service completion, queue pull, next-stage hand-off —
// allocates nothing.

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
// order readmit preserves). Server slot j serves serving[j] and completes
// through doneH[j]; idle lists the free slots.
type station struct {
	svc      stats.Dist
	fifo     handleRing
	edf      edfHeap
	readmit  handleRing
	readmitH sim.Handler
	serving  []int32
	idle     []int32
	doneH    []sim.Handler
}

// checkClearingSize refuses a stream of n transactions that a run cannot
// index in 32 bits, under an event budget: a handle is an int32 index into
// the column, and a station's EDF sequence number (32 bits of an edfHeap
// entry) counts its pushes — at most one per transaction plus one per
// re-admission event, so at most n plus the budget.
func checkClearingSize(n int, budget uint64) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("banking: %d transactions exceed the %d a clearing run can index", n, math.MaxInt32)
	}
	if uint64(n)+budget > math.MaxUint32 {
		return fmt.Errorf("banking: %d transactions under an event budget of %d overflow the 32-bit queue sequence", n, budget)
	}
	return nil
}

// RunClearingOn pushes the transactions through the pipeline under the
// given discipline on a caller-provided kernel, and returns latency and
// deadline statistics. Transactions must be sorted by arrival time
// (GenerateTransactions and TransactionsFromWorkload both emit them sorted).
// The caller checks the kernel's Err: a run cut short by the event budget
// (~7–8 events per transaction) settles only some of the transactions.
func RunClearingOn(k *sim.Kernel, pipeline []Stage, txs []Transaction, disc QueueDiscipline) (*ClearingResult, error) {
	if len(pipeline) == 0 {
		return nil, fmt.Errorf("banking: empty pipeline")
	}
	for _, st := range pipeline {
		if st.Servers <= 0 || st.ServiceSeconds == nil {
			return nil, fmt.Errorf("banking: stage %q misconfigured", st.Name)
		}
	}
	if err := checkClearingSize(len(txs), k.MaxEvents()); err != nil {
		return nil, err
	}
	res := &ClearingResult{}
	// Completion statistics fold in at settlement time, in completion
	// order — the same order (and float arithmetic) the old done-list
	// post-pass used.
	lats := make([]float64, 0, len(txs))
	var latenessSum time.Duration

	stations := make([]station, len(pipeline))
	serveOrQueue := func(si int, h int32) {
		st := &stations[si]
		if n := len(st.idle); n > 0 {
			j := st.idle[n-1]
			st.idle = st.idle[:n-1]
			st.serving[j] = h
			svc := st.svc.Sample(k.Rand())
			if svc < 0.001 {
				svc = 0.001
			}
			k.AfterFunc(time.Duration(svc*float64(time.Second)), st.doneH[j])
			return
		}
		var depth int
		if disc == EDF {
			st.edf.push(h, txs[h].Deadline)
			depth = st.edf.len()
		} else {
			st.fifo.push(h)
			depth = st.fifo.len()
		}
		if depth > res.MaxQueueDepth {
			res.MaxQueueDepth = depth
		}
	}
	// stageDone is the body of every slot's completion handler: free the
	// server, pull the next queued transaction per discipline, advance (or
	// settle) the transaction the slot served.
	stageDone := func(si int, j int32, now sim.Time) {
		st := &stations[si]
		h := st.serving[j]
		st.idle = append(st.idle, j)
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
		if si+1 < len(stations) {
			serveOrQueue(si+1, h)
			return
		}
		tx := &txs[h]
		res.Completed++
		lats = append(lats, (now - tx.Arrive).Seconds())
		if tx.Deadline > 0 && now > tx.Deadline {
			res.DeadlineMiss++
			latenessSum += now - tx.Deadline
		}
	}
	for si, stage := range pipeline {
		st := &stations[si]
		st.svc = stage.ServiceSeconds
		st.serving = make([]int32, stage.Servers)
		st.idle = make([]int32, stage.Servers)
		st.doneH = make([]sim.Handler, stage.Servers)
		for j := range st.idle {
			slot := int32(j)
			st.idle[j] = slot
			st.doneH[j] = func(now sim.Time) { stageDone(si, slot, now) }
		}
		st.readmitH = func(sim.Time) { serveOrQueue(si, st.readmit.pop()) }
	}

	// Admit the arrival stream: one sorted kernel stream sharing a single
	// handler and a cursor — zero per-arrival allocation, with firing order
	// identical to scheduling each transaction in turn (same contiguous
	// sequence block; see sim.ScheduleStream). The cursor is the handle.
	at := make([]sim.Time, len(txs))
	for i := range txs {
		at[i] = txs[i].Arrive
	}
	cursor := int32(0)
	admit := func(sim.Time) {
		serveOrQueue(0, cursor)
		cursor++
	}
	if err := k.ScheduleStream(at, admit); err != nil {
		return nil, fmt.Errorf("banking: schedule arrivals: %w", err)
	}
	k.Run()

	if res.Completed == 0 {
		return res, nil
	}
	res.MissRate = float64(res.DeadlineMiss) / float64(res.Completed)
	res.MeanLatency = time.Duration(stats.Mean(lats) * float64(time.Second))
	// Last use of lats: the quantile may reorder it.
	res.P95Latency = time.Duration(stats.QuantileInPlace(lats, 0.95) * float64(time.Second))
	if res.DeadlineMiss > 0 {
		res.MeanLateness = latenessSum / time.Duration(res.DeadlineMiss)
	}
	return res, nil
}
