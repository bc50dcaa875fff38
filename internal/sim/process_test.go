package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// handTicker is the reference a Ticker must be indistinguishable from: a
// fresh ScheduleAt after every tick, canceled through its handle on Stop.
type handTicker struct {
	k       *Kernel
	period  Time
	fn      Handler
	next    *Event
	stopped bool
}

func newHandTicker(k *Kernel, period Time, fn Handler) *handTicker {
	h := &handTicker{k: k, period: period, fn: fn}
	h.arm()
	return h
}

func (h *handTicker) arm() {
	ev, err := h.k.ScheduleAt(h.k.Now()+h.period, func(now Time) {
		if h.stopped {
			return
		}
		h.fn(now)
		if !h.stopped {
			h.arm()
		}
	})
	if err != nil {
		panic(err)
	}
	h.next = ev
}

func (h *handTicker) Stop() {
	if h.stopped {
		return
	}
	h.stopped = true
	h.k.Cancel(h.next)
}

type stopper interface{ Stop() }

// tickerProgram runs a ticker among other events that share its instants:
// handle events scheduled before it started, and a handle event, a
// zero-delay AfterFunc and a wheel-bound AfterFunc spawned by each tick,
// plus a far-future event. stopAt names who stops the ticker at the fifth
// tick instant: a pre-scheduled event, which fires ahead of the tick
// ("before"); the tick handler itself ("inside"); or one of the events the
// previous tick spawned for this instant, which fire after the tick has
// re-armed ("after", "imm"). "" leaves the ticker running past the horizon.
// The log records each firing with the kernel's Processed and Pending counts
// at that moment.
func tickerProgram(start func(k *Kernel, period Time, fn Handler) stopper, stopAt string) []string {
	const period = 10 * time.Millisecond
	stopInstant := 5 * period
	k := New(1)
	var log []string
	note := func(label string, now Time) {
		log = append(log, fmt.Sprintf("%s@%v processed=%d pending=%d", label, now, k.Processed(), k.Pending()))
	}
	var tk stopper
	shared := func(label string) Handler {
		return func(now Time) {
			note(label, now)
			if stopAt == label && now == stopInstant {
				tk.Stop()
				tk.Stop()
			}
		}
	}
	for i := 1; i <= 8; i++ {
		k.ScheduleAt(Time(i)*period, shared("before"))
	}
	k.MustSchedule(100*period, func(now Time) { note("far", now) })
	tk = start(k, period, func(now Time) {
		note("tick", now)
		if _, err := k.ScheduleAt(now, shared("after")); err != nil {
			panic(err)
		}
		k.AfterFunc(0, shared("imm"))
		k.AfterFunc(period, func(now Time) { note("wheel", now) })
		if stopAt == "inside" && now == stopInstant {
			tk.Stop()
		}
	})
	k.RunUntil(12 * period)
	note("end", k.Now())
	return log
}

func TestTickerMatchesHandRescheduling(t *testing.T) {
	ticker := func(k *Kernel, period Time, fn Handler) stopper { return NewTicker(k, period, fn) }
	hand := func(k *Kernel, period Time, fn Handler) stopper { return newHandTicker(k, period, fn) }
	for _, stopAt := range []string{"", "before", "inside", "after", "imm"} {
		t.Run("stop="+stopAt, func(t *testing.T) {
			got := tickerProgram(ticker, stopAt)
			want := tickerProgram(hand, stopAt)
			if !slices.Equal(got, want) {
				t.Fatalf("ticker diverges from hand re-scheduling\n got: %q\nwant: %q", got, want)
			}
			ticks := 0
			for _, line := range got {
				if line[:4] == "tick" {
					ticks++
				}
			}
			wantTicks := 12
			switch stopAt {
			case "before":
				wantTicks = 4
			case "inside", "after", "imm":
				wantTicks = 5
			}
			if ticks != wantTicks {
				t.Errorf("%d ticks, want %d", ticks, wantTicks)
			}
		})
	}
}

func TestTickerSteadyStateTickAllocatesNothing(t *testing.T) {
	k := New(1)
	n := 0
	NewTicker(k, time.Second, func(Time) { n++ })
	// Warm up so the heap's backing array has its final size.
	k.RunUntil(10 * time.Second)
	allocs := testing.AllocsPerRun(100, func() {
		k.RunUntil(k.Now() + time.Second)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per tick, want 0", allocs)
	}
	if n != 111 {
		t.Errorf("%d ticks, want 111", n)
	}
}
