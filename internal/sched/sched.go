// Package sched implements resource management and scheduling policies — the
// capability the paper elevates to a principle (P4: "Resource Management and
// Scheduling ... are key to ensure non-functional properties at runtime") and
// a challenge (C7: the dual problem of allocation and provisioning).
//
// The package separates the two classic policy points:
//
//   - queue policies decide the order in which eligible tasks are considered;
//   - placement policies decide which machine a task lands on.
//
// The simulation engine (package opendc) consumes these policies; portfolio
// scheduling (switching policies at runtime, one of the adaptation classes in
// the authors' self-awareness survey [95]) is layered on top.
package sched

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/workload"
)

// QueuedTask is a task awaiting placement, annotated with the bookkeeping the
// policies need.
type QueuedTask struct {
	Task *workload.Task
	User string
	// Submit is the job submission time; Ready is when the task's
	// dependencies completed (equals Submit for independent tasks).
	Submit, Ready time.Duration
	// Attempts counts placement attempts (grows after failures).
	Attempts int
	// RequireAccelerator constrains placement to machines whose class
	// carries the named accelerator (paper C4, functional heterogeneity).
	RequireAccelerator string
	// Pos is the task's position in its workload (job-major order), the
	// key the engine files the task's state under. Task IDs need not be
	// unique across jobs; positions are.
	Pos int
}

// QueuePolicy orders the pending queue. Implementations must not retain the
// slice.
type QueuePolicy interface {
	// Order sorts pending in the order tasks should be considered.
	Order(pending []*QueuedTask, now time.Duration)
	// Name identifies the policy in reports.
	Name() string
}

// FCFS orders tasks by readiness time (first come, first served).
type FCFS struct{}

// Order implements QueuePolicy.
func (FCFS) Order(pending []*QueuedTask, _ time.Duration) {
	sortStable(pending, func(a, b *QueuedTask) int { return cmp.Compare(a.Ready, b.Ready) })
}

// Name implements QueuePolicy.
func (FCFS) Name() string { return "fcfs" }

// sortStable sorts pending stably by cmp. A queue is often still in order
// from the last pass plus tasks appended at a later instant, and a stable
// sort leaves a sorted slice as it is, so the check alone decides.
func sortStable(pending []*QueuedTask, cmp func(a, b *QueuedTask) int) {
	if !slices.IsSortedFunc(pending, cmp) {
		slices.SortStableFunc(pending, cmp)
	}
}

// SJF orders tasks by reference runtime, shortest first.
type SJF struct{}

// Order implements QueuePolicy.
func (SJF) Order(pending []*QueuedTask, _ time.Duration) {
	sortStable(pending, func(a, b *QueuedTask) int { return cmp.Compare(a.Task.Runtime, b.Task.Runtime) })
}

// Name implements QueuePolicy.
func (SJF) Name() string { return "sjf" }

// LJF orders tasks by reference runtime, longest first.
type LJF struct{}

// Order implements QueuePolicy.
func (LJF) Order(pending []*QueuedTask, _ time.Duration) {
	sortStable(pending, func(a, b *QueuedTask) int { return cmp.Compare(b.Task.Runtime, a.Task.Runtime) })
}

// Name implements QueuePolicy.
func (LJF) Name() string { return "ljf" }

// WFP3 is the Worst-Fit-Preempting-3 style heuristic used in grid scheduling
// studies: priority grows with waiting time and shrinks with job size,
// balancing responsiveness and fairness.
type WFP3 struct{}

// Order implements QueuePolicy.
func (WFP3) Order(pending []*QueuedTask, now time.Duration) {
	score := func(t *QueuedTask) float64 {
		wait := (now - t.Ready).Seconds() + 1
		rt := t.Task.Runtime.Seconds() + 1
		w := wait / rt
		return w * w * w * float64(t.Task.Cores)
	}
	sortStable(pending, func(a, b *QueuedTask) int {
		sa, sb := score(a), score(b)
		switch {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return 0
	})
}

// Name implements QueuePolicy.
func (WFP3) Name() string { return "wfp3" }

// FairShare orders users by their consumed core-seconds (least first),
// breaking ties FCFS — a max-min fairness approximation over users.
type FairShare struct {
	usage map[string]float64
}

// NewFairShare returns a fair-share policy with empty usage accounts.
func NewFairShare() *FairShare {
	return &FairShare{usage: make(map[string]float64)}
}

// Charge records consumption of coreSeconds by user; the engine calls it on
// task completion.
func (f *FairShare) Charge(user string, coreSeconds float64) {
	f.usage[user] += coreSeconds
}

// Order implements QueuePolicy.
func (f *FairShare) Order(pending []*QueuedTask, _ time.Duration) {
	sortStable(pending, func(a, b *QueuedTask) int {
		ua, ub := f.usage[a.User], f.usage[b.User]
		switch {
		case ua < ub:
			return -1
		case ua > ub:
			return 1
		}
		return cmp.Compare(a.Ready, b.Ready)
	})
}

// Name implements QueuePolicy.
func (f *FairShare) Name() string { return "fairshare" }

// RandomOrder shuffles the queue (the null-hypothesis policy).
type RandomOrder struct {
	R *rand.Rand
}

// Order implements QueuePolicy.
func (p RandomOrder) Order(pending []*QueuedTask, _ time.Duration) {
	if p.R == nil {
		return
	}
	p.R.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
}

// Name implements QueuePolicy.
func (RandomOrder) Name() string { return "random" }

// PlacementPolicy selects a machine for a task from the candidate set.
type PlacementPolicy interface {
	// Select returns the chosen machine, or nil if no machine fits.
	Select(machines []*dcmodel.Machine, t *QueuedTask) *dcmodel.Machine
	// Name identifies the policy in reports.
	Name() string
}

// fits reports whether t can run on m, honoring accelerator constraints.
func fits(m *dcmodel.Machine, t *QueuedTask) bool {
	if t.RequireAccelerator != "" && m.Class.Accelerator != t.RequireAccelerator {
		return false
	}
	return m.Fits(t.Task.Cores, t.Task.MemoryMB)
}

// FirstFit picks the first machine (by slice order) that fits.
type FirstFit struct{}

// Select implements PlacementPolicy.
func (FirstFit) Select(machines []*dcmodel.Machine, t *QueuedTask) *dcmodel.Machine {
	for _, m := range machines {
		if fits(m, t) {
			return m
		}
	}
	return nil
}

// Name implements PlacementPolicy.
func (FirstFit) Name() string { return "firstfit" }

// BestFit picks the fitting machine with the fewest free cores left after
// placement (packs tightly, maximizing idle machines for power-down).
type BestFit struct{}

// Select implements PlacementPolicy.
func (BestFit) Select(machines []*dcmodel.Machine, t *QueuedTask) *dcmodel.Machine {
	var best *dcmodel.Machine
	bestLeft := 1 << 30
	for _, m := range machines {
		if !fits(m, t) {
			continue
		}
		left := m.FreeCores() - t.Task.Cores
		if left < bestLeft {
			bestLeft = left
			best = m
		}
	}
	return best
}

// Name implements PlacementPolicy.
func (BestFit) Name() string { return "bestfit" }

// WorstFit picks the fitting machine with the most free cores left
// (load-balances, minimizing interference).
type WorstFit struct{}

// Select implements PlacementPolicy.
func (WorstFit) Select(machines []*dcmodel.Machine, t *QueuedTask) *dcmodel.Machine {
	var best *dcmodel.Machine
	bestLeft := -1
	for _, m := range machines {
		if !fits(m, t) {
			continue
		}
		left := m.FreeCores() - t.Task.Cores
		if left > bestLeft {
			bestLeft = left
			best = m
		}
	}
	return best
}

// Name implements PlacementPolicy.
func (WorstFit) Name() string { return "worstfit" }

// FastestFit picks the fastest fitting machine — the heterogeneity-aware
// placement of experiment T3-C4.
type FastestFit struct{}

// Select implements PlacementPolicy.
func (FastestFit) Select(machines []*dcmodel.Machine, t *QueuedTask) *dcmodel.Machine {
	var best *dcmodel.Machine
	bestSpeed := 0.0
	for _, m := range machines {
		if !fits(m, t) {
			continue
		}
		if m.Class.Speed > bestSpeed {
			bestSpeed = m.Class.Speed
			best = m
		}
	}
	return best
}

// Name implements PlacementPolicy.
func (FastestFit) Name() string { return "fastestfit" }

// RandomFit picks a uniformly random fitting machine.
type RandomFit struct {
	R *rand.Rand
}

// Select implements PlacementPolicy.
func (p RandomFit) Select(machines []*dcmodel.Machine, t *QueuedTask) *dcmodel.Machine {
	var candidates []*dcmodel.Machine
	for _, m := range machines {
		if fits(m, t) {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	if p.R == nil {
		return candidates[0]
	}
	return candidates[p.R.Intn(len(candidates))]
}

// Name implements PlacementPolicy.
func (RandomFit) Name() string { return "randomfit" }

// Compile-time interface compliance checks.
var (
	_ QueuePolicy = FCFS{}
	_ QueuePolicy = SJF{}
	_ QueuePolicy = LJF{}
	_ QueuePolicy = WFP3{}
	_ QueuePolicy = (*FairShare)(nil)
	_ QueuePolicy = RandomOrder{}

	_ PlacementPolicy = FirstFit{}
	_ PlacementPolicy = BestFit{}
	_ PlacementPolicy = WorstFit{}
	_ PlacementPolicy = FastestFit{}
	_ PlacementPolicy = RandomFit{}
)

// QueueMode selects head-of-line blocking behaviour.
type QueueMode int

// Queue modes. Strict blocks the queue when its head does not fit (pure
// space-sharing FCFS); EASY grants the head a reservation and backfills
// tasks that cannot delay it; Greedy skips non-fitting tasks freely (fastest
// but can starve wide tasks).
const (
	Strict QueueMode = iota + 1
	EASY
	Greedy
)

// String implements fmt.Stringer.
func (m QueueMode) String() string {
	switch m {
	case Strict:
		return "strict"
	case EASY:
		return "easy-backfill"
	case Greedy:
		return "greedy"
	default:
		return "mode?"
	}
}

// Config bundles the policy choices for one scheduler instance.
type Config struct {
	Queue     QueuePolicy
	Placement PlacementPolicy
	Mode      QueueMode
	// MaxRetries bounds re-execution attempts after machine failures;
	// 0 means the engine default.
	MaxRetries int
}

// Stateful is implemented by queue policies that accumulate runtime state
// (fair-share usage accounts, portfolio scores). Fresh returns a new
// instance of the same policy with reset state, so independent engines —
// concurrent federation sites, parallel sweep cells — never share or race
// on policy memory.
type Stateful interface {
	Fresh() QueuePolicy
}

// Fresh implements Stateful: a fair-share policy with empty usage accounts.
func (f *FairShare) Fresh() QueuePolicy { return NewFairShare() }

// Fresh implements Stateful: a portfolio over fresh instances of the same
// member policies, with scores and exploration state reset.
func (p *Portfolio) Fresh() QueuePolicy {
	members := make([]QueuePolicy, len(p.Policies))
	for i, m := range p.Policies {
		if s, ok := m.(Stateful); ok {
			m = s.Fresh()
		}
		members[i] = m
	}
	fresh := NewPortfolio(members...)
	fresh.Epoch = p.Epoch
	return fresh
}

// Fresh returns a config safe to hand to an independent engine running
// concurrently with others built from the same config: stateless policies
// are shared as-is (they carry no memory), stateful ones are replaced by
// fresh instances. Placement policies in this package are stateless, so
// only the queue policy needs freshening.
func (c Config) Fresh() Config {
	if s, ok := c.Queue.(Stateful); ok {
		c.Queue = s.Fresh()
	}
	return c
}

// Named returns a human-readable identifier for the configuration.
func (c Config) Named() string {
	q, p := "fcfs", "firstfit"
	if c.Queue != nil {
		q = c.Queue.Name()
	}
	if c.Placement != nil {
		p = c.Placement.Name()
	}
	return q + "/" + p + "/" + c.Mode.String()
}
