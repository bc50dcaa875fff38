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

	machines []*dcmodel.Machine

	// pending is the queue; a scheduling pass compacts the tasks it
	// leaves queued to its front, in place.
	pending []*sched.QueuedTask

	// Per-task state is kept in columns indexed by the task's position in
	// the workload: job j's tasks sit at positions jobStart[j] up to
	// jobStart[j+1], in slice order. Positions are fixed once in RunOn, so
	// no state is keyed by task ID, and tasks whose IDs collide across
	// jobs (a federation site receives jobs numbered by several origins)
	// keep separate state.
	jobs      []workload.Job
	jobStart  []int32 // len(jobs)+1
	jobOf     []int32 // position → job index
	records   []TaskRecord
	queued    []sched.QueuedTask // one per task; makeReady hands it out
	done      []sim.Event        // completion of the running attempt
	remaining []int32            // unfinished dependency count
	// The positions waiting on p are depList[depStart[p]:depStart[p+1]],
	// in task order.
	depStart  []int32
	depList   []int32
	submitted int // jobs submitted so far; their tasks have records

	// byDone is the running set as a completion index, sorted by
	// (completion time, start order) descending, so the next task to
	// complete is last. The kernel fires same-instant events in the order
	// they were scheduled, so the completion event firing now is always
	// the last entry's, and one shared handler (onDone) serves every task.
	byDone  []release
	onDone  sim.Handler
	free    []int   // reservationTime scratch, one entry per machine
	victims []int32 // failMachines scratch

	schedArmed  bool
	schedPass   sim.Handler // built once; armScheduler queues it
	maxRetries  int
	failRestart int
	horizon     time.Duration

	failureEvents []failure.Event

	runningCores int

	// machineGen counts machine-state changes: touch bumps it, and
	// refreshes the machine's entry in watts, right after each Allocate,
	// Release, SetDown and SetAsleep the engine makes; nothing else
	// mutates a machine during a run. Cluster power is the sum of watts
	// in machine order, so a value computed at generation g stays exact
	// until the generation moves; powerGen records the generation
	// lastPowerW was computed at. This keeps the monitor tick, which is
	// most of a cell's events, from re-summing every machine.
	machineGen uint64
	powerGen   uint64
	watts      []float64
	// freeOf is each machine's free cores as of its last touch, and
	// freeCores their sum: no task fits while its demand exceeds it.
	freeOf    []int
	freeCores int

	energyJoules float64
	lastPowerAt  time.Duration
	lastPowerW   float64

	utilIntegral float64 // core-seconds used
	lastUtilAt   time.Duration

	// Snapshots taken at the last task completion, so drained runs (no
	// explicit horizon) do not bill the idle tail up to the internal bound.
	energyAtDone, utilAtDone float64
	clockAtDone              time.Duration

	// Power management state (nil policy disables it), per machine:
	// idleSince is when the machine was first seen idle (-1: not idle).
	power     *PowerPolicy
	idleSince []time.Duration
	waking    []bool
}

// release is one running task in the completion index.
type release struct {
	at      sim.Time
	pos     int32
	machine int32 // index into the cluster's machines
	cores   int32
}

// Errors returned by Run for invalid scenarios.
var (
	ErrNoCluster  = errors.New("opendc: scenario has no cluster")
	ErrNoWorkload = errors.New("opendc: scenario has no workload")
)

// Run executes the scenario and returns its result. The cluster is reset
// before and left dirty after; callers reusing a cluster should Reset it.
// A run cut short by the kernel's event budget fails with sim.ErrBudget.
func Run(sc *Scenario) (*Result, error) {
	k := sim.New(sc.Seed)
	res, err := RunOn(k, sc)
	if err == nil {
		err = k.Err()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunOn executes the scenario on a caller-provided kernel — the entry point
// used by the scenario registry, where the runner owns the kernel. The
// kernel must be fresh (virtual time zero); the caller checks its Err.
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

	e := &engine{
		k:          k,
		scenario:   sc,
		cfg:        cfg,
		machines:   sc.Cluster.Machines,
		maxRetries: maxRetries,
		free:       make([]int, len(sc.Cluster.Machines)),
		watts:      make([]float64, len(sc.Cluster.Machines)),
		freeOf:     make([]int, len(sc.Cluster.Machines)),
	}
	e.index(sc.Workload.Jobs)
	// Touching every machine fills watts and moves the generation off the
	// zero powerGen, so the first accrue sums the column.
	for i := range e.machines {
		e.touch(i)
	}
	e.schedPass = func(now sim.Time) {
		e.schedArmed = false
		e.schedule(now)
	}
	e.onDone = e.complete
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
	if err := e.k.ScheduleStream(len(jobs), func(i int) sim.Time { return jobs[i].Submit }, func(now sim.Time) {
		e.submitJob(now)
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
		nextFailure := 0
		if err := e.k.ScheduleStream(len(order), func(j int) sim.Time { return events[order[j]].At }, func(now sim.Time) {
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
		e.idleSince = make([]time.Duration, len(e.machines))
		for i := range e.idleSince {
			e.idleSince[i] = -1
		}
		e.waking = make([]bool, len(e.machines))
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

	e.k.RunUntil(e.horizon)
	monitor.Stop()
	if powerTicker != nil {
		powerTicker.Stop()
	}
	e.accrueEnergy(e.k.Now())
	e.accrueUtil(e.k.Now())

	return e.finish(), nil
}

// index lays out the per-task columns: one record, queue entry and
// dependency count per position, and the dependents of every task. Deps
// name tasks of the same job (Workload.Validate checks it), so each job
// resolves its dependency IDs to positions on its own.
func (e *engine) index(jobs []workload.Job) {
	e.jobs = jobs
	e.jobStart = make([]int32, len(jobs)+1)
	n := 0
	for j := range jobs {
		e.jobStart[j] = int32(n)
		n += len(jobs[j].Tasks)
	}
	e.jobStart[len(jobs)] = int32(n)
	e.jobOf = make([]int32, n)
	e.records = make([]TaskRecord, n)
	e.queued = make([]sched.QueuedTask, n)
	e.done = make([]sim.Event, n)
	e.remaining = make([]int32, n)
	e.depStart = make([]int32, n+1)
	// The queue never outgrows the tasks, and the running set never
	// outgrows the cores either, since every task takes at least one.
	e.pending = make([]*sched.QueuedTask, 0, n)
	e.byDone = make([]release, 0, min(n, e.scenario.Cluster.TotalCores()))
	type edge struct{ from, to int32 } // to waits on from
	var edges []edge
	var byID []int32 // a job's task indices in task-ID order
	for j := range jobs {
		job := &jobs[j]
		base := e.jobStart[j]
		byID = byID[:0]
		for i := range job.Tasks {
			t := &job.Tasks[i]
			p := base + int32(i)
			e.jobOf[p] = int32(j)
			e.records[p] = TaskRecord{
				Job: job.ID, Task: t.ID, User: job.User,
				Submit: job.Submit, Machine: -1,
			}
			e.queued[p] = sched.QueuedTask{
				Task: t, User: job.User, Submit: job.Submit,
				RequireAccelerator: t.Accelerator, Pos: int(p),
			}
			e.remaining[p] = int32(len(t.Deps))
			if len(t.Deps) > 0 && len(byID) == 0 {
				for k := range job.Tasks {
					byID = append(byID, int32(k))
				}
				slices.SortFunc(byID, func(a, b int32) int { return cmp.Compare(job.Tasks[a].ID, job.Tasks[b].ID) })
			}
			for _, dep := range t.Deps {
				k, _ := slices.BinarySearchFunc(byID, dep, func(x int32, id workload.TaskID) int {
					return cmp.Compare(job.Tasks[x].ID, id)
				})
				edges = append(edges, edge{from: base + byID[k], to: p})
			}
		}
	}
	// Group the edges by the task they wait on, keeping task order within
	// a group: the order complete readies dependents in.
	slices.SortStableFunc(edges, func(a, b edge) int { return cmp.Compare(a.from, b.from) })
	e.depList = make([]int32, len(edges))
	for k, ed := range edges {
		e.depStart[ed.from+1]++
		e.depList[k] = ed.to
	}
	for p := 0; p < n; p++ {
		e.depStart[p+1] += e.depStart[p]
	}
}

// submitJob submits the next job in workload order and marks its
// dependency-free tasks ready.
func (e *engine) submitJob(now sim.Time) {
	j := e.submitted
	e.submitted++
	for p := e.jobStart[j]; p < e.jobStart[j+1]; p++ {
		if e.remaining[p] == 0 {
			e.makeReady(p, now)
		}
	}
	e.armScheduler()
}

func (e *engine) makeReady(p int32, now sim.Time) {
	e.records[p].Ready = now
	qt := &e.queued[p]
	qt.Ready = now
	e.pending = append(e.pending, qt)
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
	for i, m := range e.machines {
		switch {
		case m.Down() || m.Asleep() || m.UsedCores() > 0 || e.waking[i]:
			e.idleSince[i] = -1
		case e.idleSince[i] < 0:
			e.idleSince[i] = now
		case now-e.idleSince[i] >= e.power.IdleTimeout:
			e.accrueEnergy(now)
			m.SetAsleep(true)
			e.touch(i)
			e.idleSince[i] = -1
		}
	}
}

// wakeMachines powers up to n sleeping machines, each becoming available
// after the policy's wake delay.
func (e *engine) wakeMachines(n int, now sim.Time) {
	if e.power == nil || n <= 0 {
		return
	}
	for i, m := range e.machines {
		if n == 0 {
			return
		}
		if !m.Asleep() || e.waking[i] {
			continue
		}
		n--
		e.waking[i] = true
		e.k.AfterFunc(e.power.WakeDelay, func(now sim.Time) {
			e.accrueEnergy(now)
			m.SetAsleep(false)
			e.touch(i)
			e.waking[i] = false
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

	var reservation sim.Time // EASY shadow time; 0 = none
	// The tasks left queued are compacted to the front of pending: kept
	// counts them, and never passes the task being looked at.
	pending := e.pending
	kept := 0
	keep := func(qt *sched.QueuedTask) {
		pending[kept] = qt
		kept++
	}
	for i, qt := range pending {
		// A placement policy returns nil when no machine fits, which is
		// certain when the demand exceeds every free core put together.
		var m *dcmodel.Machine
		if qt.Task.Cores <= e.freeCores {
			m = e.cfg.Placement.Select(e.machines, qt)
		}
		if m != nil {
			// EASY: a backfilled task must not delay the reservation unless
			// it finishes before the shadow time.
			if reservation > 0 {
				finish := now + e.execTime(qt.Task, m)
				if finish > reservation {
					keep(qt)
					continue
				}
			}
			if !e.start(qt, m, now) {
				keep(qt)
			}
			continue
		}
		// The task does not fit. Under Strict it blocks the queue, and
		// with no free core left nothing behind it can start in any mode:
		// either way the rest of the queue stays as it is.
		if e.cfg.Mode == sched.Strict || e.freeCores == 0 {
			kept += copy(pending[kept:], pending[i:])
			break
		}
		keep(qt)
		if e.cfg.Mode == sched.EASY && reservation == 0 {
			reservation = e.reservationTime(qt)
		}
	}
	e.pending = pending[:kept]
	if kept > 0 {
		e.wakeMachines(kept, now)
	}
}

// execTime scales the reference runtime by machine speed.
func (e *engine) execTime(t *workload.Task, m *dcmodel.Machine) time.Duration {
	return time.Duration(float64(t.Runtime) / m.Class.Speed)
}

// reservationTime estimates the earliest time the task will fit, assuming
// running tasks complete as planned — the EASY "shadow time": walking the
// completion index in time order, the first release after which some
// machine's free cores reach the request. Free cores only grow along the
// walk, so the instant does not depend on how same-instant releases are
// ordered. A machine the task may not use starts from zero free cores but
// still collects its releases, as it always has.
func (e *engine) reservationTime(qt *sched.QueuedTask) sim.Time {
	free := e.free
	for i, m := range e.machines {
		free[i] = 0
		if (qt.RequireAccelerator == "" || m.Class.Accelerator == qt.RequireAccelerator) && !m.Down() {
			free[i] = m.FreeCores()
		}
	}
	for i := len(e.byDone) - 1; i >= 0; i-- {
		rel := &e.byDone[i]
		free[rel.machine] += int(rel.cores)
		if free[rel.machine] >= qt.Task.Cores {
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
	mi := e.machineIndex(m)
	e.touch(mi)
	e.accrueUtil(now)
	e.accrueEnergy(now)
	rec := &e.records[qt.Pos]
	rec.Start = now
	rec.Machine = m.ID
	rec.Attempts++
	qt.Attempts++
	e.runningCores += qt.Task.Cores
	exec := e.execTime(qt.Task, m)
	e.done[qt.Pos] = e.k.MustSchedule(exec, e.onDone)
	e.addRunning(now+exec, qt.Pos, mi, qt.Task.Cores)
	return true
}

// addRunning files a task that just started in the completion index.
// It starts after every task already running, so it goes after every
// entry that completes later and before every entry that completes no
// later.
func (e *engine) addRunning(at sim.Time, pos, machine, cores int) {
	lo, hi := 0, len(e.byDone)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.byDone[mid].at > at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.byDone = slices.Insert(e.byDone, lo, release{
		at: at, pos: int32(pos), machine: int32(machine), cores: int32(cores),
	})
}

// machineIndex returns m's index in the cluster. Machines are usually
// numbered by index; the scan covers clusters that are not.
func (e *engine) machineIndex(m *dcmodel.Machine) int {
	if i := int(m.ID); i >= 0 && i < len(e.machines) && e.machines[i] == m {
		return i
	}
	return slices.Index(e.machines, m)
}

// complete finishes the task whose completion event fires now, releases
// its resources, and readies its dependents.
func (e *engine) complete(now sim.Time) {
	last := len(e.byDone) - 1
	r := e.byDone[last]
	if r.at != now {
		panic(fmt.Sprintf("opendc: completion at %v fired at %v", r.at, now))
	}
	e.byDone = e.byDone[:last]
	pos := r.pos
	qt := &e.queued[pos]
	m := e.machines[r.machine]
	e.accrueUtil(now)
	e.accrueEnergy(now)
	m.Release(qt.Task.Cores, qt.Task.MemoryMB)
	e.touch(int(r.machine))
	e.runningCores -= qt.Task.Cores
	rec := &e.records[pos]
	rec.Finish = now
	rec.Completed = true
	e.energyAtDone = e.energyJoules
	e.utilAtDone = e.utilIntegral
	e.clockAtDone = now
	if fs, ok := e.cfg.Queue.(*sched.FairShare); ok {
		fs.Charge(rec.User, float64(qt.Task.Cores)*e.execTime(qt.Task, m).Seconds())
	}
	if obs, ok := e.cfg.Queue.(sched.Observer); ok {
		obs.TaskCompleted(now, rec.Start-rec.Ready, now-rec.Start)
	}
	for _, d := range e.depList[e.depStart[pos]:e.depStart[pos+1]] {
		e.remaining[d]--
		if e.remaining[d] == 0 {
			e.makeReady(d, now)
		}
	}
	e.armScheduler()
}

// failMachines applies a failure event: kills running tasks on the victims,
// marks them down, and schedules repair.
func (e *engine) failMachines(fe failure.Event, now sim.Time) {
	for _, idx := range fe.Machines {
		if idx < 0 || idx >= len(e.machines) {
			continue
		}
		m := e.machines[idx]
		if m.Down() {
			continue
		}
		e.accrueUtil(now)
		e.accrueEnergy(now)
		// Kill running tasks on m, in (task ID, position) order: the
		// requeue order feeds the scheduler's tie-breaking.
		victims := e.victims[:0]
		for _, r := range e.byDone {
			if int(r.machine) == idx {
				victims = append(victims, r.pos)
			}
		}
		if len(victims) > 0 {
			e.byDone = slices.DeleteFunc(e.byDone, func(r release) bool { return int(r.machine) == idx })
		}
		slices.SortFunc(victims, e.byTaskID)
		for _, pos := range victims {
			e.k.Cancel(e.done[pos])
			qt := &e.queued[pos]
			e.runningCores -= qt.Task.Cores
			rec := &e.records[pos]
			e.failRestart++
			if qt.Attempts >= e.maxRetries {
				rec.Completed = false
				rec.Finish = now
				continue
			}
			qt.Ready = now
			e.pending = append(e.pending, qt)
		}
		e.victims = victims
		m.SetDown(true)
		e.touch(idx)
		repairAt := now + fe.Repair
		if repairAt < e.horizon {
			e.k.AfterFunc(fe.Repair, func(now sim.Time) {
				m.SetDown(false)
				e.touch(idx)
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
		// Summed in machine order like Cluster.PowerWatts; a down machine
		// adds +0.0, which leaves a non-negative sum's bits unchanged.
		total := 0.0
		for _, w := range e.watts {
			total += w
		}
		e.lastPowerW = total
		e.powerGen = e.machineGen
	}
}

// touch records a state change of machine i, made just before: it
// refreshes the machine's power draw and free cores and moves the machine
// generation.
func (e *engine) touch(i int) {
	m := e.machines[i]
	e.watts[i] = m.PowerWatts()
	free := m.FreeCores()
	e.freeCores += free - e.freeOf[i]
	e.freeOf[i] = free
	e.machineGen++
}

// accrueUtil integrates used core-seconds between state changes.
func (e *engine) accrueUtil(now sim.Time) {
	dt := (now - e.lastUtilAt).Seconds()
	if dt > 0 {
		e.utilIntegral += float64(e.runningCores) * dt
	}
	e.lastUtilAt = now
}

// byTaskID orders positions by (task ID, position).
func (e *engine) byTaskID(a, b int32) int {
	if c := cmp.Compare(e.records[a].Task, e.records[b].Task); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// finish assembles the result.
func (e *engine) finish() *Result {
	res := &Result{
		FailureEvents:   e.failureEvents,
		FailureWindow:   e.horizon,
		SimulatedEvents: e.k.Processed(),
	}
	// Only submitted jobs have records, and they form a prefix.
	n := int(e.jobStart[e.submitted])
	res.Records = make([]TaskRecord, 0, n)
	waits := make([]float64, 0, n)
	slowdowns := make([]float64, 0, n)
	responses := make([]float64, 0, n)
	const bound = 10 * time.Second
	jobFinish := make([]time.Duration, len(e.jobs))
	jobComplete := make([]bool, len(e.jobs))
	for j := range jobComplete {
		jobComplete[j] = true
	}
	// Report and aggregate in (task ID, position) order, which fixes the
	// floating-point summation order below.
	order := make([]int32, n)
	for p := range order {
		order[p] = int32(p)
	}
	slices.SortFunc(order, e.byTaskID)
	for _, p := range order {
		rec := &e.records[p]
		j := e.jobOf[p]
		res.Records = append(res.Records, *rec)
		if !rec.Completed {
			res.Failed++
			jobComplete[j] = false
			continue
		}
		res.Completed++
		if rec.Finish > res.Makespan {
			res.Makespan = rec.Finish
		}
		if rec.Finish > jobFinish[j] {
			jobFinish[j] = rec.Finish
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
	for j := range e.jobs {
		job := &e.jobs[j]
		if job.Deadline <= 0 {
			continue
		}
		if jobComplete[j] && jobFinish[j] > 0 && jobFinish[j] <= job.Deadline {
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
