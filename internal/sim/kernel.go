// Package sim provides the discrete-event simulation kernel that underpins
// every simulated ecosystem in this repository: a virtual clock, an event
// queue with deterministic ordering, and a seeded random source.
//
// The kernel is strictly single-threaded and deterministic: two runs with the
// same seed and the same schedule of events produce byte-identical traces.
// Determinism is an MCS methodological requirement (paper §5.3, C15–C16:
// reproducible simulation-based experimentation).
//
// Every scheduled event lives in one of four sources, and step merges them
// strictly by (time, sequence number), so the firing order never depends on
// which source an event landed in:
//
//   - the heap: a keyheap.Heap of pointer-free (at, seq, slot) entries over
//     a slab of recycled slots holding the handlers. Schedule, ScheduleAt,
//     MustSchedule and AfterFunc with a positive delay land here. Schedule
//     and friends return a value handle (slot, generation) into the slab; a
//     slot is reused once its event fired or its canceled entry left the
//     heap, and the generation makes a stale handle's Cancel a no-op.
//     Sifting moves keys only, so the heap costs the garbage collector
//     nothing.
//   - the immediate ring: AfterFunc with zero delay (the "run next, at this
//     instant" pattern that dominates reactive models) is an O(1) append.
//   - streams (stream.go): ScheduleStream admits a pre-drawn, time-sorted
//     timeline (workload arrivals, failure traces) read from the caller's
//     own column, one shared handler, zero allocation per item.
//   - tickers (process.go): a running Ticker is its own source, re-armed
//     with a fresh sequence number after each tick.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mcs/internal/keyheap"
	"mcs/internal/obs"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. It reuses time.Duration so that callers can express
// instants and intervals with the standard time units.
type Time = time.Duration

// Handler is a callback invoked when an event fires. The kernel passes the
// current virtual time, which equals the time the event was scheduled for.
type Handler func(now Time)

// Event is a handle to a scheduled occurrence in virtual time, returned by
// Kernel.Schedule and friends, for Cancel. It is a small value: copy it,
// keep it in a column, compare it with the zero Event. Once the event fired
// or was canceled the handle is stale, and canceling through a stale or
// zero handle does nothing. A handle belongs to the kernel that returned it.
type Event struct {
	slot uint32 // slab index + 1; 0 in the zero handle
	gen  uint32 // the slot's generation when the event was scheduled
}

// ErrPastEvent is returned when scheduling an event before the current
// virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// ErrBudget is what Err wraps once Run or RunUntil stopped on the event
// budget with work still due: the model was cut short, so a report on it
// would be wrong.
var ErrBudget = errors.New("sim: event budget exhausted")

// EventBudget is the number of events a kernel fires before Run and
// RunUntil stop. It bounds every run, so a runaway model fails (see Err)
// instead of running forever; every shipped document and benchmark fires
// well under it.
const EventBudget = 20_000_000

// immEvent is a zero-delay fire-and-forget event on the immediate ring. It
// implicitly fires at the kernel's current time; seq keeps FIFO ordering
// consistent with heap events at the same instant.
type immEvent struct {
	seq uint64
	fn  Handler
}

// slabSlot holds a heap event's handler. fn is nil once the event is
// canceled; gen advances each time the event fires or is canceled, which
// makes every handle to it stale; next links free slots (index + 1).
type slabSlot struct {
	fn   Handler
	gen  uint32
	next uint32
}

// Kernel is a discrete-event simulation executor. The zero value is not
// usable; construct one with New.
type Kernel struct {
	now Time
	// heap orders the heap events by (time, sequence number); each entry's
	// payload is the slab slot that holds its handler.
	heap keyheap.Heap[uint32]
	slab []slabSlot
	free uint32 // head of the free slot list (index + 1; 0 when empty)
	// imm is the immediate ring: zero-delay AfterFunc events awaiting
	// execution at the current instant. immHead indexes the front. Virtual
	// time cannot advance while the ring is non-empty, which is what makes
	// the implicit "at == now" representation sound.
	imm     []immEvent
	immHead int
	// streams holds the live sorted arrival streams (see stream.go);
	// exhausted streams are dropped as their last item fires.
	streams []*eventStream
	// tickers holds the running tickers (see process.go).
	tickers []*Ticker
	seq     uint64
	// rng is built from seed on the first Rand call, so a model that
	// draws nothing from the kernel pays for no random source.
	rng       *rand.Rand
	seed      int64
	processed uint64
	maxEvents uint64 // the event budget; EventBudget unless a test sets it
	err       error  // the budget stop, once Run or RunUntil hits one
	// canceledQueued counts canceled events still holding heap entries, so
	// Pending can report live events without compacting.
	canceledQueued int
	// stats, when non-nil, accumulates per-path dispatch telemetry
	// (internal/obs). Nil by default: the unobserved hot path pays one
	// predicted branch per step and nothing else. Telemetry is read-only
	// by contract — it can never alter event ordering, the RNG stream, or
	// any result byte.
	stats *obs.KernelStats
}

// Option configures a Kernel at construction time.
type Option func(*Kernel)

// WithKernelStats attaches a telemetry accumulator: the kernel counts
// per-path dispatches and cancels into st as it runs, and fires
// st.OnHeartbeat every st.HeartbeatEvery processed events. Observability is strictly read-only: an observed
// kernel fires the same events in the same order with the same RNG stream
// as an unobserved one (TestKernelStatsDoNotPerturbExecution).
func WithKernelStats(st *obs.KernelStats) Option {
	return func(k *Kernel) { k.stats = st }
}

// New returns a kernel whose random source is seeded with seed. The same seed
// yields the same random stream and, therefore, the same simulation outcome
// for deterministic models.
func New(seed int64, opts ...Option) *Kernel {
	k := &Kernel{seed: seed, maxEvents: EventBudget}
	for _, opt := range opts {
		opt(k)
	}
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. Models must draw all
// randomness from this source to preserve reproducibility. The source is
// seeded on the first call, so its stream does not depend on when that
// call comes.
func (k *Kernel) Rand() *rand.Rand {
	if k.rng == nil {
		k.seedRand()
	}
	return k.rng
}

// seedRand builds the random source; kept out of Rand so Rand inlines.
func (k *Kernel) seedRand() { k.rng = rand.New(rand.NewSource(k.seed)) }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of live events currently scheduled across the
// heap, the immediate ring, admitted streams and running tickers. Canceled
// events awaiting lazy removal from the heap are not counted, nor is a
// ticker while its own handler runs.
func (k *Kernel) Pending() int {
	n := k.heap.Len() - k.canceledQueued + len(k.imm) - k.immHead
	for _, s := range k.streams {
		n += s.n - s.head
	}
	for _, t := range k.tickers {
		if !t.firing {
			n++
		}
	}
	return n
}

// SetMaxEvents replaces the kernel's event budget (EventBudget by
// default) with n: Run and RunUntil stop once n events have fired in all.
// It is for tests and benchmarks; models run under the default.
func (k *Kernel) SetMaxEvents(n uint64) { k.maxEvents = n }

// MaxEvents returns the kernel's event budget.
func (k *Kernel) MaxEvents() uint64 { return k.maxEvents }

// Err returns nil unless Run or RunUntil stopped on the event budget while
// an event they would have fired was still scheduled; then it returns
// ErrBudget, wrapped with the budget and the virtual time of the stop. The
// code that creates a kernel checks Err before it reports on the run.
func (k *Kernel) Err() error { return k.err }

// Schedule arranges for fn to run after delay. A negative delay is an error.
func (k *Kernel) Schedule(delay Time, fn Handler) (Event, error) {
	return k.ScheduleAt(k.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute virtual time at. Events
// scheduled for the same instant fire in scheduling order (FIFO).
func (k *Kernel) ScheduleAt(at Time, fn Handler) (Event, error) {
	if at < k.now {
		return Event{}, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, k.now)
	}
	slot := k.heapAdd(at, fn)
	return Event{slot: slot + 1, gen: k.slab[slot].gen}, nil
}

// MustSchedule is Schedule for callers that know delay is non-negative; it
// panics on programmer error instead of returning one.
func (k *Kernel) MustSchedule(delay Time, fn Handler) Event {
	ev, err := k.Schedule(delay, fn)
	if err != nil {
		panic(err)
	}
	return ev
}

// AfterFunc arranges for fn to run after delay, without returning a handle.
// It is the fire-and-forget fast path: a zero delay (run at this very
// instant, after everything already scheduled for it) skips the priority
// queue for an O(1) ring append, and a positive delay goes to the heap.
// Use it for the bulk of model events — completions, hand-offs, scheduler
// passes — and reserve Schedule for events that may need Cancel. AfterFunc
// panics on a negative delay.
func (k *Kernel) AfterFunc(delay Time, fn Handler) {
	if delay < 0 {
		panic(fmt.Errorf("%w: delay=%v now=%v", ErrPastEvent, delay, k.now))
	}
	if delay == 0 {
		k.seq++
		k.imm = append(k.imm, immEvent{seq: k.seq, fn: fn})
		return
	}
	k.heapAdd(k.now+delay, fn)
}

// heapAdd stamps fn with the next sequence number, files it in a slab slot
// (a free one if any) and pushes its heap entry; it returns the slot.
func (k *Kernel) heapAdd(at Time, fn Handler) uint32 {
	slot := k.free
	if slot != 0 {
		slot--
		s := &k.slab[slot]
		k.free = s.next
		s.fn = fn
	} else {
		slot = uint32(len(k.slab))
		k.slab = append(k.slab, slabSlot{fn: fn, gen: 1})
	}
	k.seq++
	k.heap.Push(int64(at), k.seq, slot)
	return slot
}

// release puts a slot whose heap entry was popped back on the free list,
// advancing its generation so that every handle to it goes stale.
func (k *Kernel) release(slot uint32) {
	s := &k.slab[slot]
	s.fn = nil
	s.gen++
	s.next = k.free
	k.free = slot + 1
}

// Cancel prevents a scheduled event from firing. Canceling through a handle
// whose event already fired or was canceled, or through the zero Event, is
// a no-op.
func (k *Kernel) Cancel(ev Event) {
	i := int(ev.slot) - 1
	if i < 0 || i >= len(k.slab) || k.slab[i].gen != ev.gen {
		return
	}
	s := &k.slab[i]
	s.fn = nil // release references early; the heap entry stays until it surfaces
	s.gen++
	k.canceledQueued++
	if k.stats != nil {
		k.stats.Canceled++
	}
}

// Sources the merge in step can draw the next event from.
const (
	srcNone = iota
	srcImm
	srcHeap
	srcStream
	srcTicker
)

// Outcomes of step.
const (
	stepIdle  = iota // no event is due by the horizon
	stepFired        // one event fired
	stepCut          // an event is due, but the budget is spent
)

// maxTime is a horizon no event lies past.
const maxTime = Time(math.MaxInt64)

// step fires the next event due by horizon, advancing the clock to its
// time. The next event is the least (time, sequence) across the four
// sources: the immediate ring (due at the current instant), the heap, the
// admitted stream heads and the running tickers. The strict merge is what
// makes the streams and the tickers observationally invisible: firing
// order never depends on which source an event landed in. step declines,
// firing nothing, when no event is due by horizon, or when one is but the
// event budget is spent; that second case is recorded for Err.
func (k *Kernel) step(horizon Time) int {
	// The best candidate so far starts as a sentinel every event due by
	// horizon beats.
	src, at, seq := srcNone, horizon, uint64(math.MaxUint64)
	if k.immHead < len(k.imm) && k.now <= horizon {
		src, at, seq = srcImm, k.now, k.imm[k.immHead].seq
	}
	// Drop canceled entries from the heap top so the merge compares live
	// candidates only.
	for k.canceledQueued > 0 && k.heap.Len() > 0 {
		if _, _, slot := k.heap.Top(); k.slab[slot].fn != nil {
			break
		}
		k.canceledQueued--
		_, _, slot := k.heap.Pop()
		k.release(slot)
	}
	if k.heap.Len() > 0 {
		if hat, hseq, _ := k.heap.Top(); before(Time(hat), hseq, at, seq) {
			src, at, seq = srcHeap, Time(hat), hseq
		}
	}
	var str *eventStream
	for _, s := range k.streams {
		if sseq := s.base + 1 + uint64(s.head); before(s.next, sseq, at, seq) {
			src, at, seq, str = srcStream, s.next, sseq, s
		}
	}
	var tk *Ticker
	for _, t := range k.tickers {
		if before(t.at, t.seq, at, seq) {
			src, at, seq, tk = srcTicker, t.at, t.seq, t
		}
	}
	if src == srcNone {
		return stepIdle
	}
	if k.processed >= k.maxEvents {
		if k.err == nil {
			k.err = fmt.Errorf("%w: %d events fired by t=%v", ErrBudget, k.maxEvents, k.now)
		}
		return stepCut
	}
	k.processed++
	switch src {
	case srcImm:
		front := &k.imm[k.immHead]
		fn := front.fn
		front.fn = nil
		k.immHead++
		if k.immHead == len(k.imm) {
			k.imm = k.imm[:0]
			k.immHead = 0
		}
		fn(k.now)
	case srcHeap:
		_, _, slot := k.heap.Pop()
		fn := k.slab[slot].fn
		k.release(slot)
		k.now = at
		fn(at)
	case srcStream:
		fn := k.streamPop(str)
		k.now = at
		fn(at)
	case srcTicker:
		k.now = at
		tk.fire(at)
	}
	if st := k.stats; st != nil {
		k.noteDispatch(st, src)
	}
	return stepFired
}

// noteDispatch records one fired event's source path and drives the
// heartbeat hook. Kept out of step's switch so the disabled path is a
// single nil check.
func (k *Kernel) noteDispatch(st *obs.KernelStats, src int) {
	switch src {
	case srcImm:
		st.ImmediateDispatched++
	case srcHeap, srcTicker:
		st.HeapDispatched++
	case srcStream:
		st.StreamDispatched++
	}
	if st.HeartbeatEvery > 0 && st.OnHeartbeat != nil && k.processed%st.HeartbeatEvery == 0 {
		st.OnHeartbeat(k.processed, k.now)
	}
}

// Run executes events until the queue drains or the event budget is spent,
// and returns the number of events processed during this call. A budget
// stop with events still scheduled is recorded for Err.
func (k *Kernel) Run() uint64 {
	start := k.processed
	for k.step(maxTime) == stepFired {
	}
	return k.processed - start
}

// RunUntil executes events with time ≤ horizon and then advances the clock to
// horizon. Events scheduled after horizon remain queued. It returns the
// number of events processed during this call. When the event budget runs
// out before an event due by horizon fires, RunUntil records the stop for
// Err and leaves the clock where the stop happened.
func (k *Kernel) RunUntil(horizon Time) uint64 {
	start := k.processed
	r := k.step(horizon)
	for r == stepFired {
		r = k.step(horizon)
	}
	if r == stepIdle && k.now < horizon {
		k.now = horizon
	}
	return k.processed - start
}

// before reports whether the event keyed (at, seq) fires before the one
// keyed (bestAt, bestSeq).
func before(at Time, seq uint64, bestAt Time, bestSeq uint64) bool {
	return at < bestAt || (at == bestAt && seq < bestSeq)
}
