// Package opendc is the datacenter simulator at the heart of the toolkit —
// the equivalent of the authors' OpenDC platform (paper §6.1, C11, C15,
// ref [130]): a discrete-event model of a cluster executing a workload under
// configurable resource management and scheduling, failure injection, and
// monitoring.
//
// A Scenario describes the cluster, the workload, and the policies; Run
// executes it deterministically (per seed) and returns a Result with
// per-task records and the aggregate metrics datacenter studies report:
// makespan, wait time, bounded slowdown, utilization, energy, goodput.
package opendc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/failure"
	"mcs/internal/sched"
	"mcs/internal/sim"
	"mcs/internal/stats"
	"mcs/internal/workload"
)

// Scenario configures one simulation run.
type Scenario struct {
	Cluster  *dcmodel.Cluster
	Workload *workload.Workload
	Sched    sched.Config
	// Failures, when non-nil, injects machine failures over the horizon,
	// drawn from the kernel's random stream.
	Failures *failure.Model
	// FailureSource, when non-nil, supplies a pre-drawn failure timeline and
	// wins over Failures. The engine calls it exactly once, with the cluster
	// size, the effective horizon, and the machine→rack map, so callers that
	// seed the draw from the document (scenario.FailureOverlay) keep the
	// kernel's random stream untouched by failure injection.
	FailureSource func(n int, horizon time.Duration, racks []string) ([]failure.Event, error)
	// Horizon caps simulated time; 0 lets the run drain naturally (with a
	// generous internal bound to terminate pathological scenarios).
	Horizon time.Duration
	// MonitorInterval is the period at which energy and utilization are
	// accrued between machine-state changes (default 30s of simulated time).
	MonitorInterval time.Duration
	// Power, when non-nil, enables energy-proportional operation: idle
	// machines sleep after IdleTimeout and wake (paying WakeDelay) when the
	// queue needs them — adaptation class (v) of the authors' survey [95].
	Power *PowerPolicy
	Seed  int64
}

// PowerPolicy configures energy-proportional machine power management.
type PowerPolicy struct {
	// IdleTimeout is how long a machine must sit idle before sleeping
	// (default 5 minutes).
	IdleTimeout time.Duration
	// WakeDelay is the power-up latency paid when waking a machine
	// (default 30 seconds).
	WakeDelay time.Duration
}

// TaskRecord captures the lifecycle of one task attempt chain.
type TaskRecord struct {
	Job     workload.JobID
	Task    workload.TaskID
	User    string
	Submit  time.Duration
	Ready   time.Duration
	Start   time.Duration
	Finish  time.Duration
	Machine dcmodel.MachineID
	// Attempts is the number of executions (>1 after failures).
	Attempts int
	// Completed is false if the task exhausted retries or the horizon.
	Completed bool
}

// Wait returns the queueing delay of the final, successful attempt.
func (t *TaskRecord) Wait() time.Duration { return t.Start - t.Ready }

// Result aggregates a finished simulation.
type Result struct {
	Records []TaskRecord
	// Makespan is the completion time of the last finished task.
	Makespan time.Duration
	// Metrics over completed tasks.
	MeanWait, P95Wait   time.Duration
	MeanSlowdown        float64 // bounded slowdown, threshold 10s
	P95Slowdown         float64
	MeanResponse        time.Duration
	Completed, Failed   int
	FailureRestarts     int
	Utilization         float64 // time-averaged core utilization
	EnergyKWh           float64
	GoodputTasksPerHour float64
	DeadlineMisses      int
	DeadlineMet         int
	// FailureEvents is the injected failure timeline (nil without injection)
	// and FailureWindow the horizon it was drawn over; together they let the
	// caller compute availability metrics without re-drawing.
	FailureEvents          []failure.Event
	FailureWindow          time.Duration
	SimulatedEvents        uint64
	WallClockAdvisoryNotes []string
}

// engine holds the mutable simulation state.
type engine struct {
	k        *sim.Kernel
	scenario *Scenario
	cfg      sched.Config

	pending    []*sched.QueuedTask
	records    map[workload.TaskID]*TaskRecord
	tasks      map[workload.TaskID]*workload.Task
	jobs       map[workload.JobID]*workload.Job
	remaining  map[workload.TaskID]int // unfinished dependency count
	dependents map[workload.TaskID][]workload.TaskID
	running    map[workload.TaskID]*running

	schedArmed  bool
	schedPass   sim.Handler // built once; armScheduler queues it
	maxRetries  int
	failRestart int
	horizon     time.Duration

	failureEvents []failure.Event

	runningCores int

	// machineGen counts machine-state changes: it is bumped right after
	// each Allocate, Release, SetDown and SetAsleep the engine makes, and
	// nothing else mutates a machine during a run. Cluster power is a pure
	// function of machine state, so a value computed at generation g stays
	// exact until the generation moves; powerGen records the generation
	// lastPowerW was computed at. This keeps the monitor tick, which is
	// most of a cell's events, from re-summing every machine.
	machineGen uint64
	powerGen   uint64

	energyJoules float64
	lastPowerAt  time.Duration
	lastPowerW   float64

	utilIntegral float64 // core-seconds used
	lastUtilAt   time.Duration

	// Snapshots taken at the last task completion, so drained runs (no
	// explicit horizon) do not bill the idle tail up to the internal bound.
	energyAtDone, utilAtDone float64
	clockAtDone              time.Duration

	// Power management state (nil policy disables it).
	power     *PowerPolicy
	idleSince map[dcmodel.MachineID]time.Duration
	waking    map[dcmodel.MachineID]bool
}

type running struct {
	qt      *sched.QueuedTask
	machine *dcmodel.Machine
	done    *sim.Event
}

// Errors returned by Run for invalid scenarios.
var (
	ErrNoCluster  = errors.New("opendc: scenario has no cluster")
	ErrNoWorkload = errors.New("opendc: scenario has no workload")
)

// Run executes the scenario and returns its result. The cluster is reset
// before and left dirty after; callers reusing a cluster should Reset it.
func Run(sc *Scenario) (*Result, error) {
	return RunOn(sim.New(sc.Seed), sc)
}

// RunOn executes the scenario on a caller-provided kernel — the entry point
// used by the scenario registry, where the runner owns the kernel. The
// kernel must be fresh (virtual time zero).
func RunOn(k *sim.Kernel, sc *Scenario) (*Result, error) {
	if sc.Cluster == nil || len(sc.Cluster.Machines) == 0 {
		return nil, ErrNoCluster
	}
	if sc.Workload == nil || len(sc.Workload.Jobs) == 0 {
		return nil, ErrNoWorkload
	}
	if err := sc.Cluster.Validate(); err != nil {
		return nil, fmt.Errorf("opendc: %w", err)
	}
	if err := sc.Workload.Validate(); err != nil {
		return nil, fmt.Errorf("opendc: %w", err)
	}
	sc.Cluster.Reset()

	cfg := sc.Sched
	if cfg.Queue == nil {
		cfg.Queue = sched.FCFS{}
	}
	if cfg.Placement == nil {
		cfg.Placement = sched.FirstFit{}
	}
	if cfg.Mode == 0 {
		cfg.Mode = sched.EASY
	}
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = 5
	}

	nTasks := sc.Workload.TaskCount()
	e := &engine{
		k:          k,
		scenario:   sc,
		cfg:        cfg,
		records:    make(map[workload.TaskID]*TaskRecord, nTasks),
		tasks:      make(map[workload.TaskID]*workload.Task, nTasks),
		jobs:       make(map[workload.JobID]*workload.Job, len(sc.Workload.Jobs)),
		remaining:  make(map[workload.TaskID]int, nTasks),
		dependents: make(map[workload.TaskID][]workload.TaskID),
		running:    make(map[workload.TaskID]*running),
		maxRetries: maxRetries,
		// Generation 1 differs from the zero powerGen, so the first read
		// computes.
		machineGen: 1,
	}
	e.schedPass = func(now sim.Time) {
		e.schedArmed = false
		e.schedule(now)
	}
	e.horizon = sc.Horizon
	if e.horizon == 0 {
		// Generous internal bound: workload span plus serial execution of
		// all work on one reference core, plus slack.
		var serial time.Duration
		for i := range sc.Workload.Jobs {
			serial += sc.Workload.Jobs[i].TotalWork()
		}
		e.horizon = sc.Workload.Span() + 2*serial + 24*time.Hour
	}

	// Submit events, admitted as one stream: Validate guarantees the jobs
	// are ordered by submit time, so the submit column is already sorted and
	// same-instant jobs fire in slice order.
	jobs := sc.Workload.Jobs
	submits := make([]sim.Time, len(jobs))
	for i := range jobs {
		e.jobs[jobs[i].ID] = &jobs[i]
		submits[i] = jobs[i].Submit
	}
	nextJob := 0
	if err := e.k.ScheduleStream(submits, func(now sim.Time) {
		job := &jobs[nextJob]
		nextJob++
		e.submitJob(job, now)
	}); err != nil {
		return nil, fmt.Errorf("opendc: schedule submits: %w", err)
	}

	// Failure injection: the whole pre-generated trace goes in as one stream.
	if sc.Failures != nil || sc.FailureSource != nil {
		racks := make([]string, len(sc.Cluster.Machines))
		for i, m := range sc.Cluster.Machines {
			racks[i] = m.Rack
		}
		var events []failure.Event
		var err error
		if sc.FailureSource != nil {
			events, err = sc.FailureSource(len(sc.Cluster.Machines), e.horizon, racks)
		} else {
			events, err = sc.Failures.Generate(len(sc.Cluster.Machines), e.horizon, racks, e.k.Rand())
		}
		if err != nil {
			return nil, fmt.Errorf("opendc: failures: %w", err)
		}
		e.failureEvents = events
		// A source need not return its trace in time order, and the trace
		// is reported as returned, so the stream walks a stably time-sorted
		// index: same-instant events fire in trace order.
		order := make([]int, len(events))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(events[a].At, events[b].At) })
		at := make([]sim.Time, len(order))
		for j, i := range order {
			at[j] = events[i].At
		}
		nextFailure := 0
		if err := e.k.ScheduleStream(at, func(now sim.Time) {
			fe := events[order[nextFailure]]
			nextFailure++
			e.failMachines(fe, now)
		}); err != nil {
			return nil, fmt.Errorf("opendc: schedule failures: %w", err)
		}
	}

	// Power management.
	var powerTicker *sim.Ticker
	if sc.Power != nil {
		p := *sc.Power
		if p.IdleTimeout <= 0 {
			p.IdleTimeout = 5 * time.Minute
		}
		if p.WakeDelay <= 0 {
			p.WakeDelay = 30 * time.Second
		}
		e.power = &p
		e.idleSince = make(map[dcmodel.MachineID]time.Duration, len(sc.Cluster.Machines))
		e.waking = make(map[dcmodel.MachineID]bool)
		powerTicker = sim.NewTicker(e.k, p.IdleTimeout/2, func(now sim.Time) {
			e.sleepIdleMachines(now)
		})
	}

	// Monitoring: each tick accrues energy and utilization, so the tick
	// interval sets where the float integrals are split.
	interval := sc.MonitorInterval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	monitor := sim.NewTicker(e.k, interval, func(now sim.Time) {
		e.accrueUtil(now)
		e.accrueEnergy(now)
	})

	e.k.SetMaxEvents(50_000_000)
	e.k.RunUntil(e.horizon)
	monitor.Stop()
	if powerTicker != nil {
		powerTicker.Stop()
	}
	e.accrueEnergy(e.k.Now())
	e.accrueUtil(e.k.Now())

	return e.finish(), nil
}

// submitJob registers the job's tasks and marks dependency-free ones ready.
func (e *engine) submitJob(job *workload.Job, now sim.Time) {
	for i := range job.Tasks {
		t := &job.Tasks[i]
		e.tasks[t.ID] = t
		e.records[t.ID] = &TaskRecord{
			Job: job.ID, Task: t.ID, User: job.User,
			Submit: job.Submit, Machine: -1,
		}
		e.remaining[t.ID] = len(t.Deps)
		for _, dep := range t.Deps {
			e.dependents[dep] = append(e.dependents[dep], t.ID)
		}
	}
	for i := range job.Tasks {
		t := &job.Tasks[i]
		if e.remaining[t.ID] == 0 {
			e.makeReady(t, job, now)
		}
	}
	e.armScheduler()
}

func (e *engine) makeReady(t *workload.Task, job *workload.Job, now sim.Time) {
	rec := e.records[t.ID]
	rec.Ready = now
	e.pending = append(e.pending, &sched.QueuedTask{
		Task: t, User: job.User, Submit: job.Submit, Ready: now,
		RequireAccelerator: t.Accelerator,
	})
}

// armScheduler coalesces scheduler invocations into one per instant.
func (e *engine) armScheduler() {
	if e.schedArmed {
		return
	}
	e.schedArmed = true
	e.k.AfterFunc(0, e.schedPass)
}

// sleepIdleMachines powers down machines that have been idle beyond the
// policy's timeout while no work is pending.
func (e *engine) sleepIdleMachines(now sim.Time) {
	if e.power == nil || len(e.pending) > 0 {
		return
	}
	for _, m := range e.scenario.Cluster.Machines {
		if m.Down() || m.Asleep() || m.UsedCores() > 0 || e.waking[m.ID] {
			delete(e.idleSince, m.ID)
			if m.UsedCores() == 0 && !m.Down() && !m.Asleep() && !e.waking[m.ID] {
				e.idleSince[m.ID] = now
			}
			continue
		}
		since, ok := e.idleSince[m.ID]
		if !ok {
			e.idleSince[m.ID] = now
			continue
		}
		if now-since >= e.power.IdleTimeout {
			e.accrueEnergy(now)
			m.SetAsleep(true)
			e.machineGen++
			delete(e.idleSince, m.ID)
		}
	}
}

// wakeMachines powers up to n sleeping machines, each becoming available
// after the policy's wake delay.
func (e *engine) wakeMachines(n int, now sim.Time) {
	if e.power == nil || n <= 0 {
		return
	}
	for _, m := range e.scenario.Cluster.Machines {
		if n == 0 {
			return
		}
		if !m.Asleep() || e.waking[m.ID] {
			continue
		}
		n--
		e.waking[m.ID] = true
		m := m
		e.k.AfterFunc(e.power.WakeDelay, func(now sim.Time) {
			e.accrueEnergy(now)
			m.SetAsleep(false)
			e.machineGen++
			delete(e.waking, m.ID)
			e.armScheduler()
		})
	}
}

// schedule runs one scheduling pass over the pending queue.
func (e *engine) schedule(now sim.Time) {
	if len(e.pending) == 0 {
		return
	}
	e.cfg.Queue.Order(e.pending, now)
	machines := e.scenario.Cluster.Machines

	var reservation sim.Time // EASY shadow time; 0 = none
	var leftover []*sched.QueuedTask
	for i, qt := range e.pending {
		m := e.cfg.Placement.Select(machines, qt)
		if m != nil {
			// EASY: a backfilled task must not delay the reservation unless
			// it finishes before the shadow time.
			if reservation > 0 {
				finish := now + e.execTime(qt.Task, m)
				if finish > reservation {
					leftover = append(leftover, qt)
					continue
				}
			}
			if !e.start(qt, m, now) {
				leftover = append(leftover, qt)
			}
			continue
		}
		// Head of queue does not fit.
		switch e.cfg.Mode {
		case sched.Strict:
			leftover = append(leftover, e.pending[i:]...)
			e.pending = leftover
			e.wakeMachines(len(leftover), now)
			return
		case sched.EASY:
			leftover = append(leftover, qt)
			if reservation == 0 {
				reservation = e.reservationTime(qt, now)
			}
		case sched.Greedy:
			leftover = append(leftover, qt)
		}
	}
	e.pending = leftover
	if len(leftover) > 0 {
		e.wakeMachines(len(leftover), now)
	}
}

// execTime scales the reference runtime by machine speed.
func (e *engine) execTime(t *workload.Task, m *dcmodel.Machine) time.Duration {
	return time.Duration(float64(t.Runtime) / m.Class.Speed)
}

// reservationTime estimates the earliest time the task will fit, assuming
// running tasks complete as planned — the EASY "shadow time".
func (e *engine) reservationTime(qt *sched.QueuedTask, now sim.Time) sim.Time {
	type release struct {
		at    sim.Time
		cores int
		m     *dcmodel.Machine
	}
	var releases []release
	for _, r := range e.running {
		releases = append(releases, release{at: r.done.At(), cores: r.qt.Task.Cores, m: r.machine})
	}
	// Sort by completion time (insertion sort; running set is modest).
	for i := 1; i < len(releases); i++ {
		for j := i; j > 0 && releases[j].at < releases[j-1].at; j-- {
			releases[j], releases[j-1] = releases[j-1], releases[j]
		}
	}
	free := make(map[dcmodel.MachineID]int, len(e.scenario.Cluster.Machines))
	for _, m := range e.scenario.Cluster.Machines {
		if qt.RequireAccelerator != "" && m.Class.Accelerator != qt.RequireAccelerator {
			continue
		}
		if !m.Down() {
			free[m.ID] = m.FreeCores()
		}
	}
	for _, rel := range releases {
		free[rel.m.ID] += rel.cores
		if free[rel.m.ID] >= qt.Task.Cores {
			return rel.at
		}
	}
	// Never fits under current knowledge: no reservation constraint.
	return e.horizon
}

// start allocates and begins executing a task. It reports whether the task
// was started; false means the placement policy picked a machine that no
// longer fits (a policy bug) and the caller should keep the task queued.
func (e *engine) start(qt *sched.QueuedTask, m *dcmodel.Machine, now sim.Time) bool {
	if !m.Allocate(qt.Task.Cores, qt.Task.MemoryMB) {
		return false
	}
	e.machineGen++
	e.accrueUtil(now)
	e.accrueEnergy(now)
	rec := e.records[qt.Task.ID]
	rec.Start = now
	rec.Machine = m.ID
	rec.Attempts++
	qt.Attempts++
	e.runningCores += qt.Task.Cores
	dur := e.execTime(qt.Task, m)
	r := &running{qt: qt, machine: m}
	r.done = e.k.MustSchedule(dur, func(now sim.Time) { e.complete(qt.Task.ID, now) })
	e.running[qt.Task.ID] = r
	return true
}

// complete finishes a task, releases resources, and readies dependents.
func (e *engine) complete(id workload.TaskID, now sim.Time) {
	r, ok := e.running[id]
	if !ok {
		return
	}
	delete(e.running, id)
	e.accrueUtil(now)
	e.accrueEnergy(now)
	r.machine.Release(r.qt.Task.Cores, r.qt.Task.MemoryMB)
	e.machineGen++
	e.runningCores -= r.qt.Task.Cores
	rec := e.records[id]
	rec.Finish = now
	rec.Completed = true
	e.energyAtDone = e.energyJoules
	e.utilAtDone = e.utilIntegral
	e.clockAtDone = now
	if fs, ok := e.cfg.Queue.(*sched.FairShare); ok {
		fs.Charge(rec.User, float64(r.qt.Task.Cores)*e.execTime(r.qt.Task, r.machine).Seconds())
	}
	if obs, ok := e.cfg.Queue.(sched.Observer); ok {
		obs.TaskCompleted(now, rec.Start-rec.Ready, now-rec.Start)
	}
	for _, depID := range e.dependents[id] {
		e.remaining[depID]--
		if e.remaining[depID] == 0 {
			t := e.tasks[depID]
			e.makeReady(t, e.jobs[t.Job], now)
		}
	}
	e.armScheduler()
}

// failMachines applies a failure event: kills running tasks on the victims,
// marks them down, and schedules repair.
func (e *engine) failMachines(fe failure.Event, now sim.Time) {
	cluster := e.scenario.Cluster
	for _, idx := range fe.Machines {
		if idx < 0 || idx >= len(cluster.Machines) {
			continue
		}
		m := cluster.Machines[idx]
		if m.Down() {
			continue
		}
		e.accrueUtil(now)
		e.accrueEnergy(now)
		// Kill running tasks on m, in task-ID order: the requeue order feeds
		// the scheduler's tie-breaking, so iterating the running map directly
		// would leak map-iteration randomness into the result bytes.
		var victims []workload.TaskID
		for id, r := range e.running {
			if r.machine == m {
				victims = append(victims, id)
			}
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
		for _, id := range victims {
			r := e.running[id]
			e.k.Cancel(r.done)
			delete(e.running, id)
			e.runningCores -= r.qt.Task.Cores
			rec := e.records[id]
			e.failRestart++
			if r.qt.Attempts >= e.maxRetries {
				rec.Completed = false
				rec.Finish = now
				continue
			}
			r.qt.Ready = now
			e.pending = append(e.pending, r.qt)
		}
		m.SetDown(true)
		e.machineGen++
		repairAt := now + fe.Repair
		if repairAt < e.horizon {
			e.k.AfterFunc(fe.Repair, func(now sim.Time) {
				m.SetDown(false)
				e.machineGen++
				e.armScheduler()
			})
		}
	}
	e.armScheduler()
}

// accrueEnergy integrates the power model between state changes.
func (e *engine) accrueEnergy(now sim.Time) {
	dt := (now - e.lastPowerAt).Seconds()
	if dt > 0 {
		e.energyJoules += e.lastPowerW * dt
	}
	e.lastPowerAt = now
	if e.powerGen != e.machineGen {
		e.lastPowerW = e.scenario.Cluster.PowerWatts()
		e.powerGen = e.machineGen
	}
}

// accrueUtil integrates used core-seconds between state changes.
func (e *engine) accrueUtil(now sim.Time) {
	dt := (now - e.lastUtilAt).Seconds()
	if dt > 0 {
		e.utilIntegral += float64(e.runningCores) * dt
	}
	e.lastUtilAt = now
}

// finish assembles the result.
func (e *engine) finish() *Result {
	res := &Result{
		FailureEvents:   e.failureEvents,
		FailureWindow:   e.horizon,
		SimulatedEvents: e.k.Processed(),
	}
	n := len(e.records)
	res.Records = make([]TaskRecord, 0, n)
	waits := make([]float64, 0, n)
	slowdowns := make([]float64, 0, n)
	responses := make([]float64, 0, n)
	const bound = 10 * time.Second
	jobFinish := make(map[workload.JobID]time.Duration)
	jobComplete := make(map[workload.JobID]bool)
	for id := range e.jobs {
		jobComplete[id] = true
	}
	// Aggregate in task-ID order: map iteration order would reorder the
	// floating-point sums below and break bit-exact reproducibility (C15).
	ids := make([]workload.TaskID, 0, len(e.records))
	for id := range e.records {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec := e.records[id]
		res.Records = append(res.Records, *rec)
		if !rec.Completed {
			res.Failed++
			jobComplete[rec.Job] = false
			continue
		}
		res.Completed++
		if rec.Finish > res.Makespan {
			res.Makespan = rec.Finish
		}
		if rec.Finish > jobFinish[rec.Job] {
			jobFinish[rec.Job] = rec.Finish
		}
		wait := rec.Wait()
		waits = append(waits, wait.Seconds())
		resp := rec.Finish - rec.Ready
		responses = append(responses, resp.Seconds())
		rt := rec.Finish - rec.Start
		if rt < bound {
			rt = bound
		}
		slowdowns = append(slowdowns, float64(wait+rec.Finish-rec.Start)/float64(rt))
	}
	res.FailureRestarts = e.failRestart
	if len(waits) > 0 {
		res.MeanWait = time.Duration(stats.Mean(waits) * float64(time.Second))
		res.P95Wait = time.Duration(stats.Quantile(waits, 0.95) * float64(time.Second))
		res.MeanSlowdown = stats.Mean(slowdowns)
		res.P95Slowdown = stats.Quantile(slowdowns, 0.95)
		res.MeanResponse = time.Duration(stats.Mean(responses) * float64(time.Second))
	}
	// Deadlines evaluate at job granularity.
	for id, job := range e.jobs {
		if job.Deadline <= 0 {
			continue
		}
		if jobComplete[id] && jobFinish[id] > 0 && jobFinish[id] <= job.Deadline {
			res.DeadlineMet++
		} else {
			res.DeadlineMisses++
		}
	}
	// With an explicit horizon the user asked for that observation window;
	// without one the run drains, and the window ends at the last
	// completion (the internal termination bound must not dilute metrics).
	span := e.k.Now()
	energy := e.energyJoules
	util := e.utilIntegral
	if e.scenario.Horizon == 0 && e.clockAtDone > 0 {
		span = e.clockAtDone
		energy = e.energyAtDone
		util = e.utilAtDone
	}
	if span > 0 {
		totalCoreSeconds := float64(e.scenario.Cluster.TotalCores()) * span.Seconds()
		if totalCoreSeconds > 0 {
			res.Utilization = util / totalCoreSeconds
		}
		res.GoodputTasksPerHour = float64(res.Completed) / span.Hours()
	}
	res.EnergyKWh = energy / 3.6e6
	return res
}
