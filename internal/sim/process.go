package sim

// This file provides higher-level building blocks on top of the raw event
// kernel: periodic tickers and resettable timers. They cover the recurring
// patterns in the ecosystem models (monitoring loops, idle timeouts) without
// each model re-deriving them.

// Ticker invokes a handler at a fixed period until stopped. It is the
// simulated analogue of time.Ticker and drives monitoring and control loops
// (paper P4: self-awareness needs periodic sensing).
type Ticker struct {
	k       *Kernel
	period  Time
	fn      Handler
	tick    Handler
	next    *Event
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
	t.tick = func(now Time) {
		if t.stopped {
			return
		}
		t.fn(now)
		if !t.stopped {
			// The handle just fired, so nothing else references it: re-arm
			// it in place rather than allocating a fresh event per tick.
			t.k.rearm(t.next, now+t.period, t.tick)
		}
	}
	t.next = k.MustSchedule(period, t.tick)
	return t
}

// Stop halts the ticker; no further ticks fire.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.k.Cancel(t.next)
}

// Timer is a single-shot, resettable timeout. It backs idle-timeout logic
// such as FaaS instance reaping.
type Timer struct {
	k  *Kernel
	ev *Event
	fn Handler
}

// NewTimer returns an unarmed timer that will run fn when it fires.
func NewTimer(k *Kernel, fn Handler) *Timer {
	return &Timer{k: k, fn: fn}
}

// Reset (re)arms the timer to fire after delay, canceling any pending firing.
func (t *Timer) Reset(delay Time) {
	t.Stop()
	t.ev = t.k.MustSchedule(delay, t.fn)
}

// Stop disarms the timer if it is armed.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.k.Cancel(t.ev)
		t.ev = nil
	}
}
