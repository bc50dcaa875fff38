package sim

// Differential fuzzing of the kernel's observable scheduling semantics
// (paper §5.3, C15–C16: a hot-path rewrite is only safe if it is
// byte-identical to its predecessor under every schedule). A byte program
// decodes into a deterministic schedule of Schedule/AfterFunc/ScheduleStream/
// NewTicker/Cancel/Stop/step/RunUntil operations — including zero delays,
// same-instant collisions, nested in-handler scheduling, delays from
// microseconds to past a quarter second, cancels through stale handles
// whose slot holds a new event, tickers stopped from inside and outside
// their handlers, and malformed (unsorted or past) streams that must be
// rejected whole — and replays it through the kernel and the naive
// sorted-slice reference (reference_test.go). Any difference in firing
// order, firing times, stream rejections, final clock, or pending count is
// a bug.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// kernelDriver abstracts the API surface under differential test so the
// same program replays against *Kernel and refKernel.
type kernelDriver interface {
	Now() Time
	Pending() int
	Schedule(delay Time, fn Handler) (cancel func(), ok bool)
	AfterFunc(delay Time, fn Handler)
	ScheduleStream(at []Time, fn Handler) bool
	NewTicker(period Time, fn Handler) (stop func())
	Step() bool // fires the next event, if any
	RunUntil(horizon Time)
	Run()
}

type realDriver struct{ k *Kernel }

func (d realDriver) Now() Time    { return d.k.Now() }
func (d realDriver) Pending() int { return d.k.Pending() }
func (d realDriver) Schedule(delay Time, fn Handler) (func(), bool) {
	ev, err := d.k.Schedule(delay, fn)
	if err != nil {
		return nil, false
	}
	return func() { d.k.Cancel(ev) }, true
}
func (d realDriver) AfterFunc(delay Time, fn Handler) { d.k.AfterFunc(delay, fn) }
func (d realDriver) ScheduleStream(at []Time, fn Handler) bool {
	return scheduleTimes(d.k, at, fn) == nil
}
func (d realDriver) NewTicker(period Time, fn Handler) func() {
	return NewTicker(d.k, period, fn).Stop
}
func (d realDriver) Step() bool            { return d.k.step(maxTime) == stepFired }
func (d realDriver) RunUntil(horizon Time) { d.k.RunUntil(horizon) }
func (d realDriver) Run()                  { d.k.Run() }

type refDriver struct{ r *refKernel }

func (d refDriver) Now() Time    { return d.r.now }
func (d refDriver) Pending() int { return d.r.pending() }
func (d refDriver) Schedule(delay Time, fn Handler) (func(), bool) {
	ev, ok := d.r.schedule(delay, fn)
	if !ok {
		return nil, false
	}
	return func() { d.r.cancel(ev) }, true
}
func (d refDriver) AfterFunc(delay Time, fn Handler) { d.r.insert(d.r.now+delay, fn) }
func (d refDriver) ScheduleStream(at []Time, fn Handler) bool {
	return d.r.scheduleStream(at, fn)
}
func (d refDriver) NewTicker(period Time, fn Handler) func() {
	return d.r.newTicker(period, fn)
}
func (d refDriver) Step() bool            { return d.r.step() }
func (d refDriver) RunUntil(horizon Time) { d.r.runUntil(horizon) }
func (d refDriver) Run()                  { d.r.run() }

// fireRec is one trace entry: which logical event fired and when.
type fireRec struct {
	id int
	at Time
}

type replayResult struct {
	trace    []fireRec
	rejected int // streams refused at admission
	// tickers and staleCancels count tickers started and cancels through
	// the stale handle of a fired event, so a test can see both happen.
	tickers, staleCancels int
	now                   Time
	pending               int
}

// progDelay maps a program byte to a delay: zero (immediate ring), or a
// heap delay on one of three scales, sub-millisecond to ~1 s, whose ranges
// overlap so that events from different scales collide.
func progDelay(b byte) Time {
	switch b % 4 {
	case 0:
		return 0
	case 1:
		return Time(b) * 37 * Time(time.Microsecond) // 0 .. ~9.4ms
	case 2:
		return Time(b) * 997 * Time(time.Microsecond) // 0 .. ~254ms
	default:
		return 250*Time(time.Millisecond) + Time(b)*3*Time(time.Millisecond) // 250ms .. ~1s
	}
}

// replayState interprets a byte program against one driver. All decisions —
// op choice, delays, which handle to cancel, what a fired handler schedules
// next — are pure functions of the byte stream and of how many events have
// fired, so two kernels with identical firing order run identical programs.
type replayState struct {
	d        kernelDriver
	data     []byte
	trace    []fireRec
	cancels  []func() // handle cancels and ticker stops
	handleOf map[int]func()
	// lastFired cancels through the handle of the handle event that fired
	// last: stale, and in the kernel its slot is the likeliest to be reused.
	lastFired   func()
	tickers     []func() // stops of the tickers started, running or not
	liveTickers int
	nextID      int
	nestedAt    int
	fired       int
	maxFired    int
	rejected    int
	// staleCancels counts cancels through lastFired.
	staleCancels int
}

func (r *replayState) newID() int {
	id := r.nextID
	r.nextID++
	return id
}

// schedule schedules a handle event for a new id and keeps its cancel.
func (r *replayState) schedule(delay Time) {
	id := r.newID()
	if cancel, ok := r.d.Schedule(delay, r.handler(id)); ok {
		r.cancels = append(r.cancels, cancel)
		r.handleOf[id] = cancel
	}
}

// stream admits a pre-drawn timeline the way the engines do: one shared
// handler that walks its own cursor over per-item ids in firing order. The
// ids are drawn up front, so a rejected stream consumes the same ids in
// every kernel and the rejection itself is part of the compared result.
func (r *replayState) stream(at []Time) {
	ids := make([]int, len(at))
	for i := range ids {
		ids[i] = r.newID()
	}
	cursor := 0
	if !r.d.ScheduleStream(at, func(now Time) {
		id := ids[cursor]
		cursor++
		r.handler(id)(now)
	}) {
		r.rejected++
	}
}

// nestedByte deterministically draws program bytes for in-handler decisions.
func (r *replayState) nestedByte() byte {
	b := r.data[(r.nestedAt*31+7)%len(r.data)]
	r.nestedAt++
	return b
}

// handler returns the instrumented Handler for logical event id: it records
// the firing and may schedule follow-up work chosen by the byte stream —
// the nested-scheduling patterns (zero-delay chains, cancels from inside
// handlers) that trip ordering bugs.
func (r *replayState) handler(id int) Handler {
	return func(now Time) {
		r.trace = append(r.trace, fireRec{id: id, at: now})
		if cancel, ok := r.handleOf[id]; ok {
			r.lastFired = cancel
		}
		r.fired++
		if r.fired > r.maxFired {
			return
		}
		op, arg := r.nestedByte(), r.nestedByte()
		switch op % 5 {
		case 0: // leaf event
		case 1:
			r.d.AfterFunc(progDelay(arg), r.handler(r.newID()))
		case 2:
			r.schedule(progDelay(arg))
		case 3:
			if len(r.cancels) > 0 {
				r.cancels[int(arg)%len(r.cancels)]()
			}
		case 4:
			// Same-instant collision: two zero-delay events racing anything
			// already due now.
			r.d.AfterFunc(0, r.handler(r.newID()))
			r.d.AfterFunc(0, r.handler(r.newID()))
		}
	}
}

// replay decodes and executes the whole program, then drains the kernel.
func replay(d kernelDriver, data []byte) replayResult {
	if len(data) == 0 {
		return replayResult{}
	}
	r := &replayState{d: d, data: data, maxFired: 6*len(data) + 64, handleOf: map[int]func(){}}
	pc := 0
	next := func() byte {
		if pc >= len(data) {
			return 0
		}
		b := data[pc]
		pc++
		return b
	}
	for pc < len(data) {
		op, arg := next(), next()
		switch op % 10 {
		case 0, 1: // weighted: fire-and-forget dominates real models
			d.AfterFunc(progDelay(arg), r.handler(r.newID()))
		case 2:
			r.schedule(progDelay(arg))
		case 3:
			// A short non-decreasing stream; arg occasionally malforms it
			// (unsorted, or starting in the past), which every kernel must
			// reject without admitting any item.
			at := make([]Time, int(arg)%3+1)
			t := d.Now()
			for i := range at {
				t += progDelay(next())
				at[i] = t
			}
			switch arg % 16 {
			case 13:
				at[0], at[len(at)-1] = at[len(at)-1], at[0]
			case 14:
				at[0] = d.Now() - 1
			}
			r.stream(at)
		case 4:
			if len(r.cancels) > 0 {
				r.cancels[int(arg)%len(r.cancels)]()
			}
		case 5:
			d.Step()
		case 6:
			d.RunUntil(d.Now() + progDelay(arg))
		case 7:
			// Far-future stream with an exact same-instant collision, plus a
			// shorter event that may land between now and the stream.
			at := d.Now() + 257*Time(time.Millisecond)
			r.stream([]Time{at, at})
			d.AfterFunc(progDelay(arg), r.handler(r.newID()))
		case 8:
			// A fresh handle event, which in the kernel takes the most
			// recently freed slot, then a cancel through the stale handle
			// of the last handle event that fired: it must cancel nothing.
			r.schedule(progDelay(arg))
			if r.lastFired != nil {
				r.lastFired()
				r.staleCancels++
			}
		case 9:
			// Start a ticker, or stop one; at most four run at once, so a
			// program's tick count stays bounded.
			if arg%2 == 0 && r.liveTickers < 4 {
				stopTicker := d.NewTicker(10*Time(time.Millisecond)+progDelay(arg), r.handler(r.newID()))
				r.liveTickers++
				stopped := false
				stop := func() {
					if !stopped {
						stopped = true
						r.liveTickers--
					}
					stopTicker() // a second Stop must do nothing
				}
				r.tickers = append(r.tickers, stop)
				r.cancels = append(r.cancels, stop)
			} else if len(r.tickers) > 0 {
				r.tickers[int(arg/2)%len(r.tickers)]()
			}
		}
	}
	for _, stop := range r.tickers {
		stop()
	}
	d.Run()
	return replayResult{
		trace: r.trace, rejected: r.rejected, now: d.Now(), pending: d.Pending(),
		tickers: len(r.tickers), staleCancels: r.staleCancels,
	}
}

func diffResults(want, got replayResult) error {
	if len(want.trace) != len(got.trace) {
		return fmt.Errorf("fired %d events, reference fired %d", len(got.trace), len(want.trace))
	}
	for i := range want.trace {
		if want.trace[i] != got.trace[i] {
			return fmt.Errorf("firing %d diverges: got id=%d at=%v, reference id=%d at=%v",
				i, got.trace[i].id, got.trace[i].at, want.trace[i].id, want.trace[i].at)
		}
	}
	if want.rejected != got.rejected {
		return fmt.Errorf("rejected %d streams, reference rejected %d", got.rejected, want.rejected)
	}
	if want.now != got.now {
		return fmt.Errorf("final clock %v, reference %v", got.now, want.now)
	}
	if want.pending != got.pending {
		return fmt.Errorf("final pending %d, reference %d", got.pending, want.pending)
	}
	return nil
}

// runDifferential replays one program through the reference and a fresh
// kernel (the seed is irrelevant: replay draws no randomness from it),
// reports the first divergence, and returns the reference result.
func runDifferential(t *testing.T, data []byte) replayResult {
	t.Helper()
	want := replay(refDriver{&refKernel{}}, data)
	if err := diffResults(want, replay(realDriver{New(1)}, data)); err != nil {
		t.Error(err)
	}
	return want
}

// FuzzKernelOrdering is the differential fuzz target; CI runs a short
// -fuzztime smoke on every push, and `go test` replays the seed corpus.
func FuzzKernelOrdering(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{7, 255, 5, 0, 6, 130})
	// One byte per opcode with arguments hitting every delay regime.
	f.Add([]byte{0, 0, 1, 37, 2, 85, 3, 2, 77, 129, 4, 0, 5, 0, 6, 254, 7, 9})
	seq := make([]byte, 256)
	for i := range seq {
		seq[i] = byte(i)
	}
	f.Add(seq)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		buf := make([]byte, 64+rng.Intn(192))
		rng.Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		runDifferential(t, data)
	})
}

// TestKernelDifferentialPrograms gives non-fuzz `go test` runs a fixed batch
// of pseudorandom programs through the same differential harness.
func TestKernelDifferentialPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	var rejected, tickers, staleCancels int
	for i := 0; i < 60; i++ {
		data := make([]byte, 20+rng.Intn(500))
		rng.Read(data)
		data = append(data, byte(i)) // touch every opcode phase across runs
		t.Run(fmt.Sprintf("program-%02d", i), func(t *testing.T) {
			res := runDifferential(t, data)
			rejected += res.rejected
			tickers += res.tickers
			staleCancels += res.staleCancels
		})
	}
	if rejected == 0 || tickers == 0 || staleCancels == 0 {
		t.Errorf("programs exercised %d rejected streams, %d tickers and %d stale cancels; want some of each",
			rejected, tickers, staleCancels)
	}
}
