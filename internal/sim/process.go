package sim

// This file provides higher-level building blocks on top of the raw event
// kernel: periodic tickers and resettable timers. They cover the recurring
// patterns in the ecosystem models (monitoring loops, idle timeouts) without
// each model re-deriving them.

import "slices"

// Ticker invokes a handler at a fixed period until stopped. It is the
// simulated analogue of time.Ticker and drives monitoring and control loops
// (paper P4: self-awareness needs periodic sensing).
//
// A running ticker is one of the kernel's merge sources, not a heap event:
// it holds its next tick's (time, sequence) key itself and takes a fresh
// sequence number after each tick's handler returns, exactly as if the
// handler's last act were to schedule the next tick with ScheduleAt. It
// is observationally identical to that re-scheduling
// (TestTickerMatchesHandRescheduling), and a tick counts as a heap
// dispatch in the kernel's telemetry.
type Ticker struct {
	k      *Kernel
	period Time
	fn     Handler
	at     Time   // the next tick
	seq    uint64 // the next tick's sequence number
	// firing is set while the tick handler runs: the tick has left the
	// queue and the next one is not yet armed.
	firing  bool
	stopped bool
}

// NewTicker starts a ticker with the given period; the first tick fires one
// period from now. The period must be positive.
func NewTicker(k *Kernel, period Time, fn Handler) *Ticker {
	t := &Ticker{k: k, period: period, fn: fn}
	if period <= 0 {
		t.stopped = true
		return t
	}
	t.arm(k.now)
	k.tickers = append(k.tickers, t)
	return t
}

// arm stamps the tick one period after now with the next sequence number.
func (t *Ticker) arm(now Time) {
	t.k.seq++
	t.at, t.seq = now+t.period, t.k.seq
}

// fire runs one tick at now and re-arms the ticker unless the handler
// stopped it.
func (t *Ticker) fire(now Time) {
	t.firing = true
	t.fn(now)
	t.firing = false
	if !t.stopped {
		t.arm(now)
	}
}

// Stop halts the ticker; no further ticks fire. Stopping an armed ticker
// counts as one cancel in the kernel's telemetry.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	k := t.k
	if i := slices.Index(k.tickers, t); i >= 0 {
		k.tickers = slices.Delete(k.tickers, i, i+1)
	}
	if !t.firing && k.stats != nil {
		k.stats.Canceled++
	}
}

// Timer is a single-shot, resettable timeout. It backs idle-timeout logic
// such as FaaS instance reaping.
type Timer struct {
	k  *Kernel
	ev Event
	fn Handler
}

// NewTimer returns an unarmed timer that will run fn when it fires.
func NewTimer(k *Kernel, fn Handler) *Timer {
	return &Timer{k: k, fn: fn}
}

// Reset (re)arms the timer to fire after delay, canceling any pending firing.
func (t *Timer) Reset(delay Time) {
	t.k.Cancel(t.ev)
	t.ev = t.k.MustSchedule(delay, t.fn)
}

// Stop disarms the timer if it is armed.
func (t *Timer) Stop() {
	t.k.Cancel(t.ev)
	t.ev = Event{}
}
