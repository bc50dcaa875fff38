// Package faas simulates a serverless Function-as-a-Service platform
// following the paper's Figure-5 reference architecture (§6.5, developed
// with the SPEC RG Cloud group): a Resource Layer of instance slots, a
// Resource Orchestration layer that creates and reaps function instances, a
// Function Management layer that routes invocations (warm instances versus
// cold starts) and enforces isolation, and a Function Composition layer that
// executes workflows of functions.
//
// The model reproduces the pragmatic challenges the paper names for FaaS —
// "achieving good performance while isolating the operation of each
// function" — through the cold-start/keep-warm trade-off measured by
// experiment F5.
package faas

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mcs/internal/failure"
	"mcs/internal/sim"
	"mcs/internal/stats"
)

// Function declares a deployable cloud function (business logic, Figure 5
// top) with its operational parameters.
type Function struct {
	Name string
	// Exec draws execution durations in seconds.
	Exec stats.Dist
	// ColdStart is the instance initialization time paid when no warm
	// instance is available.
	ColdStart time.Duration
	MemoryMB  int
}

// Config parameterizes the platform (operational logic, Figure 5 bottom).
type Config struct {
	// MaxInstances caps concurrently existing instances per function
	// (multi-tenant isolation limit); 0 means 64.
	MaxInstances int
	// IdleTimeout reaps warm instances idle this long; 0 means 5 minutes.
	IdleTimeout time.Duration
	// KeepWarm instances per function are never reaped (the provider-side
	// mitigation of cold starts; the F5 ablation sweeps this).
	KeepWarm int
}

// Invocation is one function-call request.
type Invocation struct {
	Function string
	At       time.Duration
	// Exec, when positive, is the predetermined execution duration of this
	// call — the trace-replay path, where service demands travel with the
	// workload. Zero draws from the function's Exec distribution at
	// execution time (the legacy platform-side path).
	Exec time.Duration
}

// Record is the outcome of one invocation.
type Record struct {
	Function string
	Submit   time.Duration
	Start    time.Duration // execution start (after queueing and cold start)
	Finish   time.Duration
	Cold     bool
}

// Latency returns the end-to-end latency.
func (r Record) Latency() time.Duration { return r.Finish - r.Submit }

// Result aggregates a platform run.
type Result struct {
	Records []Record
	// Latency percentiles in seconds over all invocations.
	MeanLatency, P50Latency, P95Latency, P99Latency time.Duration
	ColdStarts                                      int
	ColdFraction                                    float64
	// InstanceSeconds is the billed instance lifetime (the cost proxy;
	// keep-warm pools pay here).
	InstanceSeconds float64
	// PeakInstances is the maximum concurrently existing instances.
	PeakInstances int
	// FailureKills counts instances evicted by host-slot failures;
	// FailureRestarts counts in-flight calls those evictions re-dispatched.
	// Both stay zero without failure injection.
	FailureKills    int
	FailureRestarts int
	// LayerEvents counts simulation events attributed to each Figure-5
	// layer, mapping the run back onto the reference architecture.
	LayerEvents map[string]uint64
}

// Platform is the simulated FaaS provider. Create one with NewPlatformOn,
// submit invocations and workflows, then Run the kernel via Drain.
type Platform struct {
	k   *sim.Kernel
	cfg Config
	fns map[string]*Function

	state map[string]*fnState

	records     []Record
	instSeconds float64
	instances   int
	peak        int
	layerEvents map[string]uint64

	// Failure-injection state (inactive while slots == 0, which keeps the
	// failure-free event stream byte-identical to the pre-injection
	// platform). Instances occupy host slots; a failure event takes slots
	// down for its repair duration, evicting idle instances first and then
	// the most recently started executions, whose calls re-dispatch.
	slots           int
	downSlots       int
	inflight        []*inflightRun
	failureKills    int
	failureRestarts int
}

type inflightRun struct {
	st   *fnState
	inst *instance
	call *pendingCall
	done sim.Event
}

type fnState struct {
	fn *Function
	// idle holds warm instances with their reap timers.
	idle []*instance
	// busy counts instances executing.
	busy int
	// total = len(idle) + busy.
	total int
	queue []*pendingCall
}

type instance struct {
	born  sim.Time
	timer *sim.Timer
}

type pendingCall struct {
	submit sim.Time
	exec   time.Duration
	done   func(rec Record)
}

// Layer names used in Result.LayerEvents, matching Figure 5.
const (
	LayerComposition   = "function composition"
	LayerManagement    = "function management"
	LayerOrchestration = "resource orchestration"
	LayerResources     = "resource layer"
)

// ErrUnknownFunction is returned when invoking an undeclared function.
var ErrUnknownFunction = errors.New("faas: unknown function")

// NewPlatformOn creates a platform hosting the given functions on a
// caller-provided kernel, whose seed governs the platform's randomness.
// The caller owns the kernel and checks its Err after Drain: a run cut
// short by the event budget drains only part of its calls.
func NewPlatformOn(k *sim.Kernel, cfg Config, functions []Function) (*Platform, error) {
	if cfg.MaxInstances <= 0 {
		cfg.MaxInstances = 64
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	p := &Platform{
		k:           k,
		cfg:         cfg,
		fns:         make(map[string]*Function, len(functions)),
		state:       make(map[string]*fnState, len(functions)),
		layerEvents: make(map[string]uint64),
	}
	for i := range functions {
		fn := functions[i]
		if fn.Exec == nil {
			return nil, fmt.Errorf("faas: function %q has no execution distribution", fn.Name)
		}
		if _, dup := p.fns[fn.Name]; dup {
			return nil, fmt.Errorf("faas: duplicate function %q", fn.Name)
		}
		p.fns[fn.Name] = &fn
		p.state[fn.Name] = &fnState{fn: &fn}
	}
	return p, nil
}

// Invoke schedules an invocation; the optional callback fires on completion.
func (p *Platform) Invoke(inv Invocation, done func(rec Record)) error {
	if _, ok := p.fns[inv.Function]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownFunction, inv.Function)
	}
	_, err := p.k.ScheduleAt(inv.At, func(now sim.Time) {
		p.layerEvents[LayerComposition]++
		p.dispatch(inv.Function, &pendingCall{submit: now, exec: inv.Exec, done: done})
	})
	return err
}

// dispatch is the Function Management layer: route to a warm instance, cold
// start a new one, or queue at the isolation limit.
func (p *Platform) dispatch(name string, call *pendingCall) {
	st := p.state[name]
	p.layerEvents[LayerManagement]++
	if len(st.idle) > 0 {
		inst := st.idle[len(st.idle)-1]
		st.idle = st.idle[:len(st.idle)-1]
		inst.timer.Stop()
		p.execute(st, inst, call, false)
		return
	}
	if st.total < p.cfg.MaxInstances && p.hasCapacity() {
		p.coldStart(st, call)
		return
	}
	st.queue = append(st.queue, call)
}

// hasCapacity reports whether an up host slot is free for a new instance.
// Without failure injection (slots == 0) capacity is unbounded, preserving
// the platform's original per-function-limit-only behavior.
func (p *Platform) hasCapacity() bool {
	return p.slots == 0 || p.instances < p.slots-p.downSlots
}

// coldStart is the Resource Orchestration layer creating an instance.
func (p *Platform) coldStart(st *fnState, call *pendingCall) {
	p.layerEvents[LayerOrchestration]++
	st.total++
	p.instances++
	if p.instances > p.peak {
		p.peak = p.instances
	}
	inst := &instance{born: p.k.Now()}
	inst.timer = sim.NewTimer(p.k, func(now sim.Time) { p.reap(st, inst, now) })
	p.k.AfterFunc(st.fn.ColdStart, func(now sim.Time) {
		p.execute(st, inst, call, true)
	})
}

// execute runs the call on the instance (Resource Layer work).
func (p *Platform) execute(st *fnState, inst *instance, call *pendingCall, cold bool) {
	p.layerEvents[LayerResources]++
	st.busy++
	start := p.k.Now()
	exec := call.exec
	if exec <= 0 {
		execSec := st.fn.Exec.Sample(p.k.Rand())
		if execSec < 0.0001 {
			execSec = 0.0001
		}
		exec = time.Duration(execSec * float64(time.Second))
	}
	complete := func(now sim.Time) {
		st.busy--
		rec := Record{
			Function: st.fn.Name,
			Submit:   call.submit,
			Start:    start,
			Finish:   now,
			Cold:     cold,
		}
		p.records = append(p.records, rec)
		if call.done != nil {
			call.done(rec)
		}
		// Serve the queue or return the instance to the warm pool.
		if len(st.queue) > 0 {
			next := st.queue[0]
			st.queue = st.queue[1:]
			p.execute(st, inst, next, false)
			return
		}
		st.idle = append(st.idle, inst)
		inst.timer.Reset(p.cfg.IdleTimeout)
	}
	if p.slots == 0 {
		// Failure-free fast path: completions are fire-and-forget.
		p.k.AfterFunc(exec, complete)
		return
	}
	// With failure injection active the completion must be cancellable, so a
	// host-slot failure can abort the execution and re-dispatch the call.
	run := &inflightRun{st: st, inst: inst, call: call}
	run.done = p.k.MustSchedule(exec, func(now sim.Time) {
		p.dropInflight(run)
		complete(now)
	})
	p.inflight = append(p.inflight, run)
}

// dropInflight removes a completed run from the in-flight registry.
func (p *Platform) dropInflight(run *inflightRun) {
	for i, r := range p.inflight {
		if r == run {
			p.inflight = append(p.inflight[:i], p.inflight[i+1:]...)
			return
		}
	}
}

// reap retires an idle instance unless the keep-warm floor protects it.
func (p *Platform) reap(st *fnState, inst *instance, now sim.Time) {
	if len(st.idle) <= p.cfg.KeepWarm {
		// Protected: the instance stays warm with no further timer (it
		// re-arms on its next use). Re-arming here would keep the
		// simulation alive forever.
		return
	}
	for i, cand := range st.idle {
		if cand == inst {
			st.idle = append(st.idle[:i], st.idle[i+1:]...)
			st.total--
			p.instances--
			p.instSeconds += (now - inst.born).Seconds()
			p.layerEvents[LayerOrchestration]++
			return
		}
	}
}

// InjectFailures plays a pre-drawn host-slot failure timeline against the
// platform (see scenario.FailureOverlay): the platform's instances are
// backed by `slots` host slots, each event takes its group of slots down for
// the repair duration — evicting idle instances first (sorted function
// order), then the most recently started executions, whose interrupted calls
// re-dispatch and typically pay a fresh cold start — and while slots are
// down new instances are gated by the surviving capacity. Call before Drain.
func (p *Platform) InjectFailures(events []failure.Event, slots int) error {
	if slots <= 0 {
		return nil
	}
	p.slots = slots
	for _, ev := range events {
		n := len(ev.Machines)
		repair := ev.Repair
		if _, err := p.k.ScheduleAt(ev.At, func(now sim.Time) {
			p.failSlots(n, repair, now)
		}); err != nil {
			return fmt.Errorf("faas: schedule failure: %w", err)
		}
	}
	return nil
}

// failSlots applies one failure event: n slots go down for repair.
func (p *Platform) failSlots(n int, repair time.Duration, now sim.Time) {
	if avail := p.slots - p.downSlots; n > avail {
		n = avail
	}
	if n <= 0 {
		return
	}
	p.downSlots += n
	if excess := p.instances - (p.slots - p.downSlots); excess > 0 {
		p.killInstances(excess, now)
	}
	p.k.AfterFunc(repair, func(now sim.Time) {
		p.downSlots -= n
		p.drainQueues(now)
	})
}

// killInstances evicts up to excess instances: idle pools first (in sorted
// function order, newest instance first), then in-flight executions (newest
// first), whose calls re-enter dispatch at the failure instant. Instances
// mid-cold-start cannot be evicted; any remainder rides out the outage.
func (p *Platform) killInstances(excess int, now sim.Time) {
	names := make([]string, 0, len(p.state))
	for name := range p.state {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := p.state[name]
		for excess > 0 && len(st.idle) > 0 {
			inst := st.idle[len(st.idle)-1]
			st.idle = st.idle[:len(st.idle)-1]
			inst.timer.Stop()
			p.destroyInstance(st, inst, now)
			excess--
		}
	}
	for excess > 0 && len(p.inflight) > 0 {
		run := p.inflight[len(p.inflight)-1]
		p.inflight = p.inflight[:len(p.inflight)-1]
		p.k.Cancel(run.done)
		run.st.busy--
		p.destroyInstance(run.st, run.inst, now)
		p.failureRestarts++
		excess--
		p.dispatch(run.st.fn.Name, run.call)
	}
}

// destroyInstance retires an instance killed by a failure, billing its
// lifetime like a reap does.
func (p *Platform) destroyInstance(st *fnState, inst *instance, now sim.Time) {
	st.total--
	p.instances--
	p.instSeconds += (now - inst.born).Seconds()
	p.failureKills++
	p.layerEvents[LayerOrchestration]++
}

// drainQueues restarts queued calls after a repair restores capacity.
func (p *Platform) drainQueues(now sim.Time) {
	names := make([]string, 0, len(p.state))
	for name := range p.state {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := p.state[name]
		for len(st.queue) > 0 {
			call := st.queue[0]
			if len(st.idle) > 0 {
				inst := st.idle[len(st.idle)-1]
				st.idle = st.idle[:len(st.idle)-1]
				inst.timer.Stop()
				st.queue = st.queue[1:]
				p.execute(st, inst, call, false)
				continue
			}
			if st.total < p.cfg.MaxInstances && p.hasCapacity() {
				st.queue = st.queue[1:]
				p.coldStart(st, call)
				continue
			}
			break
		}
	}
}

// Drain runs the simulation until quiescence and returns the result.
func (p *Platform) Drain() *Result {
	p.k.Run()
	now := p.k.Now()
	// Bill instances still alive at the end, in name order: summing in map
	// iteration order would let floating-point rounding differ between
	// same-seed runs.
	names := make([]string, 0, len(p.state))
	for name := range p.state {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, inst := range p.state[name].idle {
			p.instSeconds += (now - inst.born).Seconds()
		}
	}
	res := &Result{
		Records:         p.records,
		ColdStarts:      0,
		PeakInstances:   p.peak,
		InstanceSeconds: p.instSeconds,
		FailureKills:    p.failureKills,
		FailureRestarts: p.failureRestarts,
		LayerEvents:     p.layerEvents,
	}
	if len(p.records) == 0 {
		return res
	}
	lats := make([]float64, len(p.records))
	for i, r := range p.records {
		lats[i] = r.Latency().Seconds()
		if r.Cold {
			res.ColdStarts++
		}
	}
	sort.Float64s(lats)
	res.MeanLatency = time.Duration(stats.Mean(lats) * float64(time.Second))
	res.P50Latency = time.Duration(stats.Quantile(lats, 0.50) * float64(time.Second))
	res.P95Latency = time.Duration(stats.Quantile(lats, 0.95) * float64(time.Second))
	res.P99Latency = time.Duration(stats.Quantile(lats, 0.99) * float64(time.Second))
	res.ColdFraction = float64(res.ColdStarts) / float64(len(p.records))
	return res
}
