package dist

// The coordinator: expand the campaign, partition it, keep every worker
// fed, survive losing any of them, and merge a report whose bytes depend
// only on the cell results — never on scheduling.
//
// Concurrency model: one scheduler goroutine owns ALL campaign state (no
// mutexes); worker goroutines are dumb pull loops. A worker asks for a
// unit on reqCh and reports cells and unit completion on evCh; because
// both channels are unbuffered, a worker's result sends are fully received
// before its next request, so the scheduler always sees a consistent
// per-worker history. Determinism of the report needs none of this — it
// falls out of indexing results by cell position — the discipline here is
// only for fault-tolerance bookkeeping.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"mcs/internal/obs"
	"mcs/internal/scenario"
)

// Failure classification in permanent per-cell failure records.
const (
	// FailScenario marks a deterministic scenario error (bad cell config,
	// model error): retrying elsewhere cannot help beyond the retry budget.
	FailScenario = "scenario"
	// FailWorkerLost marks cells forfeited because every worker executing
	// them died or errored mid-unit.
	FailWorkerLost = "worker-lost"
)

// Failure is the typed record of a cell that could not be completed within
// its retry budget. It appears in the returned slice and, as labels, on
// the cell's placeholder envelope in the combined report.
type Failure struct {
	Index    int    `json:"index"`
	Key      string `json:"key"`
	Type     string `json:"type"`
	Msg      string `json:"msg"`
	Attempts int    `json:"attempts"`
}

// Options tune a Coordinator.
type Options struct {
	// ShardSize caps cells per work unit; <= 0 selects the Partition
	// heuristic (≈4 units per worker).
	ShardSize int
	// Retries is the per-cell re-execution budget after the first failure
	// (worker loss or scenario error). 0 means the default of 2; negative
	// disables retries. The budget bounds the damage of a poison cell that
	// kills every worker it lands on.
	Retries int
	// Checkpoint, when non-empty, is the path of the campaign's resume
	// file: completed cells load from it and new completions append to it.
	Checkpoint string
	// Events, when non-nil, receives the full typed progress stream of the
	// campaign (obs.Event): cell/worker/checkpoint lifecycle plus periodic
	// heartbeats. Sinks observe only — the campaign never blocks on them.
	Events obs.Sink
	// Heartbeat is the period of campaign heartbeat events (done/total,
	// cumulative kernel events, live workers). Zero disables them.
	Heartbeat time.Duration
}

// Coordinator runs sweep campaigns across a fleet of workers.
type Coordinator struct {
	workers []Worker
	opts    Options
	sink    obs.Sink // opts.Events; nil when disabled

	// Campaign progress, owned by the scheduler goroutine during dispatch
	// (read by Run before/after): cells resolved, cells overall, cumulative
	// kernel events across finished cells.
	done        int
	total       int
	eventsFired uint64
}

// NewCoordinator wires a coordinator to its fleet. A coordinator is
// single-use: Run shuts the fleet down when the campaign ends (closing a
// worker is the only way to unblock a straggler's pipe read). Worker Close
// implementations are idempotent, so callers may still defer their own.
func NewCoordinator(workers []Worker, opts Options) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one worker")
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	} else if opts.Retries < 0 {
		opts.Retries = 0
	}
	return &Coordinator{workers: workers, opts: opts, sink: opts.Events}, nil
}

// emit hands one progress event to the combined sink, if any. Events are
// observational only: no campaign decision ever depends on whether or when
// a sink consumed one.
func (c *Coordinator) emit(ev obs.Event) {
	if c.sink != nil {
		c.sink.Emit(ev)
	}
}

// Run executes the sweep document raw — a full "sweep" scenario document,
// exactly what `mcsim -sweep` composes — across the fleet and returns the
// combined report plus the permanent per-cell failures (empty on a clean
// campaign). The report is byte-identical to the in-process sweep path
// when every cell succeeds; failed cells contribute a placeholder envelope
// labeled with the typed failure record instead of aborting the campaign.
func (c *Coordinator) Run(ctx context.Context, raw json.RawMessage) (*scenario.Result, []Failure, error) {
	start := time.Now()
	// Whatever path exits Run, the fleet shuts down: process-backed
	// workers must not outlive the campaign (Close is idempotent, so the
	// dispatch loop's own straggler-unblocking Close calls are fine).
	defer func() {
		for _, w := range c.workers {
			w.Close()
		}
	}()
	cfg, baseKind, cells, err := scenario.ExpandSweepDocument(raw)
	if err != nil {
		return nil, nil, err
	}
	specs := Specs(cells)
	c.total = len(specs)
	c.emit(obs.Event{Type: obs.CampaignStarted, Cell: -1, Total: c.total, Workers: len(c.workers), Msg: baseKind})

	// Resume: completed cells come straight off the checkpoint.
	results := make([]*scenario.Result, len(specs))
	var ckpt *Checkpoint
	if c.opts.Checkpoint != "" {
		completed, w, err := Resume(c.opts.Checkpoint, Fingerprint(baseKind, cells), len(specs))
		if err != nil {
			return nil, nil, err
		}
		ckpt = w
		defer ckpt.Close()
		for idx, res := range completed {
			results[idx] = res
			c.done++
			c.eventsFired += res.Events
		}
		if len(completed) > 0 {
			c.emit(obs.Event{Type: obs.CampaignResumed, Cell: -1, Done: len(completed), Total: c.total, Msg: c.opts.Checkpoint})
		}
	}
	var remaining []CellSpec
	for _, spec := range specs {
		if results[spec.Index] == nil {
			remaining = append(remaining, spec)
		}
	}

	failures := map[int]Failure{}
	if len(remaining) > 0 {
		if err := c.dispatch(ctx, remaining, results, failures, ckpt); err != nil {
			return nil, nil, err
		}
	}

	// Merge strictly in grid order through the same function the
	// in-process sweep uses; failed cells get placeholder envelopes.
	ordered := make([]*scenario.Result, len(specs))
	for i, spec := range specs {
		if results[i] != nil {
			ordered[i] = results[i]
			continue
		}
		ordered[i] = failureEnvelope(spec, failures[i])
	}
	combined := scenario.CombineSweep(baseKind, cfg.Repetitions, ordered)
	combined.Scenario = "sweep"
	combined.Seed = cfg.Seed
	combined.WallClock = time.Since(start)

	flat := make([]Failure, 0, len(failures))
	for _, f := range failures {
		flat = append(flat, f)
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].Index < flat[j].Index })
	c.emit(obs.Event{Type: obs.CampaignFinished, Cell: -1, Done: c.done, Total: c.total, Attempt: len(flat), Events: c.eventsFired})
	return combined, flat, nil
}

// failureEnvelope is the deterministic-shaped placeholder a permanently
// failed cell contributes to the report: the envelope header a successful
// run would carry, no metrics, and the typed failure as labels.
func failureEnvelope(spec CellSpec, f Failure) *scenario.Result {
	kind := scenario.DefaultKind
	if env, err := scenario.ParseCommon(spec.Doc); err == nil {
		kind = env.Kind
	}
	return &scenario.Result{
		Scenario: kind,
		Seed:     spec.Seed,
		Metrics:  map[string]float64{},
		Labels: map[string]string{
			"cell":     spec.Key,
			"failed":   f.Type,
			"error":    f.Msg,
			"attempts": fmt.Sprintf("%d", f.Attempts),
		},
	}
}

// events between worker goroutines and the scheduler.
type (
	workerReq struct {
		worker int
		reply  chan *WorkUnit
	}
	cellEvent struct {
		worker int
		unitID int
		res    CellResult
	}
	unitDone struct {
		worker int
		unitID int
		err    error
	}
	workerExit struct{ worker int }
)

// inflightUnit tracks one unit's outstanding cells across its live
// dispatches (the original and any speculative clones share the entry).
type inflightUnit struct {
	remaining map[int]CellSpec // by cell index
	dispatch  int              // live dispatches
	clones    int              // total speculative re-dispatches handed out
}

// dispatch drives the pull loop until every remaining cell is resolved
// (result or permanent failure), the context dies, or the fleet does.
func (c *Coordinator) dispatch(ctx context.Context, remaining []CellSpec, results []*scenario.Result, failures map[int]Failure, ckpt *Checkpoint) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	reqCh := make(chan workerReq)
	evCh := make(chan any)
	for i, w := range c.workers {
		c.emit(obs.Event{Type: obs.WorkerJoined, Cell: -1, Worker: w.Name()})
		go workerLoop(runCtx, i, w, reqCh, evCh)
	}

	queue := Partition(remaining, c.opts.ShardSize, len(c.workers))
	nextUnitID := len(queue)
	inflight := map[int]*inflightUnit{}
	attempts := map[int]int{}     // per-cell observed failures
	retryQueued := map[int]bool{} // cell already requeued for its next attempt
	var parked []workerReq
	todo := len(remaining)
	liveWorkers := len(c.workers)
	retired := make(map[int]bool) // workers already announced as retired
	var checkpointErr error

	// Heartbeats are purely observational; a nil channel (disabled) never
	// fires in the select.
	var heartbeat <-chan time.Time
	if c.opts.Heartbeat > 0 && c.sink != nil {
		ticker := time.NewTicker(c.opts.Heartbeat)
		defer ticker.Stop()
		heartbeat = ticker.C
	}

	settle := func(spec CellSpec, errType, msg string) {
		// One more observed failure for the cell; requeue within budget,
		// else record the permanent typed failure.
		idx := spec.Index
		if results[idx] != nil || retryQueued[idx] {
			return
		}
		if _, failed := failures[idx]; failed {
			return
		}
		attempts[idx]++
		if attempts[idx] <= c.opts.Retries {
			unit := WorkUnit{ID: nextUnitID, Cells: []CellSpec{spec}}
			nextUnitID++
			queue = append(queue, unit)
			retryQueued[idx] = true
			c.emit(obs.Event{Type: obs.CellRetried, Cell: idx, Key: spec.Key, Err: errType, Attempt: attempts[idx], Budget: c.opts.Retries})
			return
		}
		failures[idx] = Failure{Index: idx, Key: spec.Key, Type: errType, Msg: msg, Attempts: attempts[idx]}
		c.emit(obs.Event{Type: obs.CellFailed, Cell: idx, Key: spec.Key, Err: msg, Attempt: attempts[idx]})
		todo--
		c.done++
	}
	nextUnit := func() *WorkUnit {
		for len(queue) > 0 {
			unit := queue[0]
			queue = queue[1:]
			// Drop cells resolved since enqueue (retry units may have been
			// overtaken by a speculative clone of the original unit).
			live := unit.Cells[:0:0]
			for _, spec := range unit.Cells {
				if results[spec.Index] == nil {
					if _, failed := failures[spec.Index]; !failed {
						live = append(live, spec)
						retryQueued[spec.Index] = false
					}
				}
			}
			if len(live) == 0 {
				continue
			}
			unit.Cells = live
			fl := inflight[unit.ID]
			if fl == nil {
				fl = &inflightUnit{remaining: map[int]CellSpec{}}
				inflight[unit.ID] = fl
			}
			for _, spec := range live {
				fl.remaining[spec.Index] = spec
			}
			fl.dispatch++
			return &unit
		}
		// Queue drained: speculate on the largest straggler unit so idle
		// workers shorten the campaign tail. Duplicated cells are
		// harmless — results are deterministic and the first one wins.
		var best *inflightUnit
		var bestID int
		for id, fl := range inflight {
			if fl.dispatch > 0 && fl.clones < 2 && len(fl.remaining) > 0 {
				if best == nil || len(fl.remaining) > len(best.remaining) {
					best, bestID = fl, id
				}
			}
		}
		if best == nil {
			return nil
		}
		clone := WorkUnit{ID: bestID}
		for _, spec := range best.remaining {
			clone.Cells = append(clone.Cells, spec)
		}
		sort.Slice(clone.Cells, func(i, j int) bool { return clone.Cells[i].Index < clone.Cells[j].Index })
		best.dispatch++
		best.clones++
		for _, spec := range clone.Cells {
			c.emit(obs.Event{Type: obs.CellSpeculated, Cell: spec.Index, Key: spec.Key})
		}
		return &clone
	}
	// handOff replies to a parked or asking worker with a unit, announcing
	// each cell of the dispatch (retries and speculative clones start a cell
	// again, by design — consumers see every attempt).
	handOff := func(req workerReq, unit *WorkUnit) {
		for _, spec := range unit.Cells {
			c.emit(obs.Event{Type: obs.CellStarted, Cell: spec.Index, Key: spec.Key, Worker: c.workers[req.worker].Name()})
		}
		req.reply <- unit
	}

	finishing := false
	for todo > 0 || liveWorkers > 0 {
		if (todo == 0 || liveWorkers == 0 || checkpointErr != nil) && !finishing {
			// Campaign finished (or unfinishable): release parked workers,
			// cancel stragglers, and drain until every goroutine exits.
			finishing = true
			cancel()
			for _, w := range c.workers {
				go w.Close() // unblocks pipe reads ctx cannot interrupt
			}
			for _, req := range parked {
				req.reply <- nil
			}
			parked = nil
		}
		if liveWorkers == 0 {
			break
		}
		select {
		case req := <-reqCh:
			if todo == 0 || checkpointErr != nil {
				req.reply <- nil
				continue
			}
			if unit := nextUnit(); unit != nil {
				handOff(req, unit)
			} else {
				parked = append(parked, req)
			}
		case ev := <-evCh:
			switch ev := ev.(type) {
			case cellEvent:
				fl := inflight[ev.unitID]
				idx := ev.res.Index
				if ev.res.Err != "" {
					if fl == nil {
						continue // unit already fully resolved
					}
					spec, ok := fl.remaining[idx]
					if !ok {
						continue // already resolved via another dispatch
					}
					delete(fl.remaining, idx)
					settle(spec, FailScenario, ev.res.Err)
					continue
				}
				if fl != nil {
					delete(fl.remaining, idx)
				}
				if idx < 0 || idx >= len(results) || results[idx] != nil || ev.res.Result == nil {
					continue // duplicate from a clone, or malformed
				}
				results[idx] = ev.res.Result
				if _, wasFailed := failures[idx]; wasFailed {
					// A straggler dispatch delivered after the cell was
					// written off: the real result overrides the failure
					// record, and the cell was already counted as resolved.
					delete(failures, idx)
				} else {
					todo--
					c.done++
				}
				c.eventsFired += ev.res.Result.Events
				c.emit(obs.Event{
					Type: obs.CellFinished, Cell: idx, Key: ev.res.Key,
					Worker: c.workers[ev.worker].Name(),
					Done:   c.done, Total: c.total, Events: ev.res.Result.Events,
				})
				if ckpt != nil && checkpointErr == nil {
					if err := ckpt.Append(idx, ev.res.Key, ev.res.Result); err != nil {
						// A broken checkpoint cannot record further
						// progress — abort rather than burn hours of
						// computation that an interruption would lose.
						checkpointErr = err
						c.emit(obs.Event{Type: obs.CheckpointFailed, Cell: idx, Key: ev.res.Key, Err: err.Error()})
					} else {
						c.emit(obs.Event{Type: obs.CheckpointWritten, Cell: idx, Key: ev.res.Key})
					}
				}
			case unitDone:
				fl := inflight[ev.unitID]
				if fl == nil {
					continue
				}
				fl.dispatch--
				// Once the campaign is finishing the coordinator has
				// canceled the stragglers itself: their cancellation
				// errors release the worker, they do not mean it was lost.
				if ev.err != nil && !finishing && !retired[ev.worker] {
					retired[ev.worker] = true
					c.emit(obs.Event{Type: obs.WorkerRetired, Cell: -1, Worker: c.workers[ev.worker].Name(), Err: ev.err.Error()})
				}
				if fl.dispatch == 0 && len(fl.remaining) > 0 {
					// No live dispatch covers these cells anymore.
					msg := "worker lost"
					if ev.err != nil {
						msg = ev.err.Error()
					}
					specs := make([]CellSpec, 0, len(fl.remaining))
					for _, spec := range fl.remaining {
						specs = append(specs, spec)
					}
					sort.Slice(specs, func(i, j int) bool { return specs[i].Index < specs[j].Index })
					fl.remaining = map[int]CellSpec{}
					for _, spec := range specs {
						settle(spec, FailWorkerLost, msg)
					}
				}
				if fl.dispatch == 0 && len(fl.remaining) == 0 {
					delete(inflight, ev.unitID)
				}
				// New retry units may unpark waiting workers.
				for len(parked) > 0 && todo > 0 {
					unit := nextUnit()
					if unit == nil {
						break
					}
					req := parked[0]
					parked = parked[1:]
					handOff(req, unit)
				}
			case workerExit:
				liveWorkers--
				if !retired[ev.worker] {
					retired[ev.worker] = true
					c.emit(obs.Event{Type: obs.WorkerRetired, Cell: -1, Worker: c.workers[ev.worker].Name()})
				}
			}
		case <-heartbeat:
			c.emit(obs.Event{Type: obs.Heartbeat, Cell: -1, Done: c.done, Total: c.total, Events: c.eventsFired, Workers: liveWorkers})
		case <-ctx.Done():
			// Interrupted from outside: the checkpoint holds everything
			// completed so far; a rerun with the same document resumes.
			cancel()
			for _, w := range c.workers {
				go w.Close()
			}
			for _, req := range parked {
				req.reply <- nil
			}
			parked = nil
			for liveWorkers > 0 {
				switch ev := (<-evCh).(type) {
				case workerExit:
					liveWorkers--
				case cellEvent:
					_ = ev // late results are abandoned; the checkpoint already has the finished ones
				}
			}
			return ctx.Err()
		}
	}
	if checkpointErr != nil {
		return fmt.Errorf("dist: checkpoint: %w", checkpointErr)
	}
	if todo > 0 {
		// A dead context can empty the fleet before the ctx.Done branch
		// wins the select; report the interruption, not the symptom.
		if err := ctx.Err(); err != nil {
			return err
		}
		return fmt.Errorf("dist: all workers lost with %d cells outstanding (checkpoint %q holds completed cells)", todo, c.opts.Checkpoint)
	}
	return nil
}

// workerLoop is the dumb pull loop a worker runs: request, execute, report.
// A Run error retires the worker — its in-flight cells reassign, and a
// fleet of one healthy worker still finishes the campaign.
func workerLoop(ctx context.Context, id int, w Worker, reqCh chan<- workerReq, evCh chan<- any) {
	defer func() { evCh <- workerExit{worker: id} }()
	for {
		req := workerReq{worker: id, reply: make(chan *WorkUnit)}
		select {
		case reqCh <- req:
		case <-ctx.Done():
			return
		}
		unit := <-req.reply
		if unit == nil {
			return
		}
		err := w.Run(ctx, *unit, func(res CellResult) {
			evCh <- cellEvent{worker: id, unitID: unit.ID, res: res}
		})
		evCh <- unitDone{worker: id, unitID: unit.ID, err: err}
		if err != nil {
			return
		}
	}
}
