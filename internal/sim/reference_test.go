package sim

// This file provides the differential-testing oracle: a deliberately naive
// kernel that keeps every event in one sorted slice and fires strictly by
// (time, sequence). It has no heap, no immediate ring and no slot slab — nothing to get wrong — so its firing order defines the
// semantics the optimized kernel must reproduce byte-for-byte. The fuzz
// harness (fuzz_test.go) replays random schedules through both and fails on
// the first divergence.

import "sort"

type refEvent struct {
	at       Time
	seq      uint64
	fn       Handler
	canceled bool
	fired    bool
}

// refKernel is the reference implementation of the kernel's observable
// scheduling semantics.
type refKernel struct {
	now    Time
	seq    uint64
	events []*refEvent // sorted by (at, seq)
}

func (r *refKernel) insert(at Time, fn Handler) *refEvent {
	r.seq++
	ev := &refEvent{at: at, seq: r.seq, fn: fn}
	// The new event carries the largest seq, so it sorts after every event
	// at the same instant: its slot is the first strictly later time.
	pos := sort.Search(len(r.events), func(i int) bool { return r.events[i].at > at })
	r.events = append(r.events, nil)
	copy(r.events[pos+1:], r.events[pos:])
	r.events[pos] = ev
	return ev
}

func (r *refKernel) schedule(delay Time, fn Handler) (*refEvent, bool) {
	if delay < 0 {
		return nil, false
	}
	return r.insert(r.now+delay, fn), true
}

// scheduleStream admits a non-decreasing, not-past timeline all-or-nothing,
// inserting the items in slice order: with nothing else inserted in
// between, they take one contiguous block of sequence numbers.
func (r *refKernel) scheduleStream(at []Time, fn Handler) bool {
	if len(at) > 0 && (fn == nil || at[0] < r.now) {
		return false
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			return false
		}
	}
	for _, t := range at {
		r.insert(t, fn)
	}
	return true
}

func (r *refKernel) cancel(ev *refEvent) {
	if ev == nil || ev.canceled || ev.fired {
		return
	}
	ev.canceled = true
	ev.fn = nil
}

func (r *refKernel) step() bool {
	for len(r.events) > 0 {
		ev := r.events[0]
		r.events = r.events[1:]
		if ev.canceled {
			continue
		}
		r.now = ev.at
		ev.fired = true
		fn := ev.fn
		ev.fn = nil
		fn(r.now)
		return true
	}
	return false
}

func (r *refKernel) run() {
	for r.step() {
	}
}

func (r *refKernel) runUntil(horizon Time) {
	for {
		next, ok := r.peekLive()
		if !ok || next > horizon {
			break
		}
		r.step()
	}
	if r.now < horizon {
		r.now = horizon
	}
}

func (r *refKernel) peekLive() (Time, bool) {
	for _, ev := range r.events {
		if !ev.canceled {
			return ev.at, true
		}
	}
	return 0, false
}

func (r *refKernel) pending() int {
	n := 0
	for _, ev := range r.events {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// newTicker re-schedules fn every period, each time after fn returns, until
// the returned stop cancels the next tick.
func (r *refKernel) newTicker(period Time, fn Handler) (stop func()) {
	stopped := false
	var next *refEvent
	var tick Handler
	tick = func(now Time) {
		fn(now)
		if !stopped {
			next = r.insert(now+period, tick)
		}
	}
	next = r.insert(r.now+period, tick)
	return func() {
		if !stopped {
			stopped = true
			r.cancel(next)
		}
	}
}
