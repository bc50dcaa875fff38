package sim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := New(1)
	var got []Time
	for _, d := range []Time{5 * time.Second, time.Second, 3 * time.Second} {
		if _, err := k.Schedule(d, func(now Time) { got = append(got, now) }); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	want := []Time{time.Second, 3 * time.Second, 5 * time.Second}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKernelFIFOAmongSimultaneousEvents(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.MustSchedule(time.Second, func(Time) { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of order: %v", order)
		}
	}
}

func TestKernelRejectsPastEvents(t *testing.T) {
	k := New(1)
	k.MustSchedule(time.Second, func(Time) {})
	k.Run()
	if _, err := k.ScheduleAt(0, func(Time) {}); err == nil {
		t.Fatal("expected error scheduling event in the past")
	}
}

func TestKernelCancel(t *testing.T) {
	k := New(1)
	fired := false
	ev := k.MustSchedule(time.Second, func(Time) { fired = true })
	k.Cancel(ev)
	k.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if !ev.Canceled() {
		t.Error("event not marked canceled")
	}
	k.Cancel(ev) // double-cancel is a no-op
}

func TestKernelRunUntilAdvancesClock(t *testing.T) {
	k := New(1)
	fired := 0
	k.MustSchedule(time.Second, func(Time) { fired++ })
	k.MustSchedule(10*time.Second, func(Time) { fired++ })
	n := k.RunUntil(5 * time.Second)
	if n != 1 || fired != 1 {
		t.Fatalf("RunUntil processed %d events (fired=%d), want 1", n, fired)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("clock at %v, want 5s", k.Now())
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("remaining event did not fire, fired=%d", fired)
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := New(1)
	var trace []Time
	k.MustSchedule(time.Second, func(now Time) {
		trace = append(trace, now)
		k.MustSchedule(2*time.Second, func(now Time) {
			trace = append(trace, now)
		})
	})
	k.Run()
	if len(trace) != 2 || trace[1] != 3*time.Second {
		t.Fatalf("nested event trace = %v", trace)
	}
}

func TestKernelMaxEventsStopsRunawayModel(t *testing.T) {
	k := New(1)
	if k.MaxEvents() != EventBudget {
		t.Fatalf("new kernel budget %d, want EventBudget", k.MaxEvents())
	}
	k.SetMaxEvents(100)
	var self func(now Time)
	self = func(Time) { k.MustSchedule(time.Millisecond, self) }
	k.MustSchedule(0, self)
	k.Run()
	if k.Processed() != 100 {
		t.Fatalf("processed %d events, want 100", k.Processed())
	}
	if err := k.Err(); !errors.Is(err, ErrBudget) {
		t.Fatalf("runaway model: Err() = %v, want ErrBudget", err)
	}
}

// TestKernelBudgetDrainedExactlyIsNoError: a model whose last event is the
// budget's last leaves nothing undone, so Run and RunUntil record no stop.
func TestKernelBudgetDrainedExactlyIsNoError(t *testing.T) {
	for _, until := range []bool{false, true} {
		k := New(1)
		k.SetMaxEvents(100)
		n := 0
		var step func(Time)
		step = func(Time) {
			if n++; n < 100 {
				k.AfterFunc(time.Millisecond, step)
			}
		}
		k.AfterFunc(0, step)
		if until {
			// An event past the horizon is not work the budget cut off.
			k.MustSchedule(time.Hour, func(Time) {})
			k.RunUntil(time.Minute)
		} else {
			k.Run()
		}
		if k.Processed() != 100 || k.Err() != nil {
			t.Fatalf("until=%v: processed %d, Err() = %v; want 100 and nil", until, k.Processed(), k.Err())
		}
	}
}

// TestKernelRunUntilBudgetStopKeepsClock: RunUntil stopped by the budget
// does not advance the clock to the horizon, and its error names the stop.
func TestKernelRunUntilBudgetStopKeepsClock(t *testing.T) {
	k := New(1)
	k.SetMaxEvents(10)
	var tick func(Time)
	tick = func(Time) { k.AfterFunc(time.Second, tick) }
	k.AfterFunc(time.Second, tick)
	k.RunUntil(time.Hour)
	if k.Now() != 10*time.Second {
		t.Fatalf("clock at %v after the budget stop, want 10s", k.Now())
	}
	err := k.Err()
	if !errors.Is(err, ErrBudget) || !strings.Contains(err.Error(), "10 events fired by t=10s") {
		t.Fatalf("Err() = %v, want ErrBudget naming the budget and the clock", err)
	}
}

// TestKernelDeterminism verifies the reproducibility invariant: two kernels
// with the same seed and same model produce identical event traces.
func TestKernelDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		k := New(seed)
		var trace []Time
		var step func(now Time)
		step = func(now Time) {
			trace = append(trace, now)
			if len(trace) < 1000 {
				delay := Time(k.Rand().Intn(1000)+1) * time.Millisecond
				k.MustSchedule(delay, step)
			}
		}
		k.MustSchedule(0, step)
		k.Run()
		return trace
	}
	a, b := run(42), run(42)
	c := run(43)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces; RNG is not wired in")
	}
}

// Property: dequeue order is non-decreasing in time for arbitrary schedules.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delaysMS []uint16) bool {
		k := New(7)
		var times []Time
		for _, d := range delaysMS {
			k.MustSchedule(Time(d)*time.Millisecond, func(now Time) {
				times = append(times, now)
			})
		}
		k.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delaysMS)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestTicker(t *testing.T) {
	k := New(1)
	var ticks []Time
	tk := NewTicker(k, time.Second, func(now Time) {
		ticks = append(ticks, now)
	})
	k.MustSchedule(3500*time.Millisecond, func(Time) { tk.Stop() })
	k.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(ticks), ticks)
	}
	for i, tick := range ticks {
		if want := Time(i+1) * time.Second; tick != want {
			t.Errorf("tick %d at %v, want %v", i, tick, want)
		}
	}
}

func TestTickerZeroPeriodIsInert(t *testing.T) {
	k := New(1)
	tk := NewTicker(k, 0, func(Time) { t.Error("tick fired") })
	tk.Stop()
	k.Run()
}

func TestTimerResetSupersedesPending(t *testing.T) {
	k := New(1)
	var fired []Time
	tm := NewTimer(k, func(now Time) { fired = append(fired, now) })
	tm.Reset(time.Second)
	k.MustSchedule(500*time.Millisecond, func(Time) { tm.Reset(2 * time.Second) })
	k.Run()
	if len(fired) != 1 || fired[0] != 2500*time.Millisecond {
		t.Fatalf("timer fired at %v, want [2.5s]", fired)
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	k := New(1)
	noop := func(Time) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.MustSchedule(Time(i%1000)*time.Microsecond, noop)
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

func TestScheduleNegativeDelayRejected(t *testing.T) {
	k := New(1)
	k.MustSchedule(time.Second, func(Time) {})
	k.Run()
	if _, err := k.Schedule(-time.Second, func(Time) {}); err == nil {
		t.Error("negative delay accepted")
	}
}

// --- timing-wheel surface -------------------------------------------------

// TestWheelHeapHorizonHandoff mixes wheel-window delays, past-horizon
// delays, and handle-bearing events: whatever queue each lands in, the
// firing order must be globally (time, seq).
func TestWheelHeapHorizonHandoff(t *testing.T) {
	k := New(1)
	var got []Time
	record := func(now Time) { got = append(got, now) }
	k.AfterFunc(500*time.Millisecond, record)          // past the 256ms horizon: heap
	k.AfterFunc(5*time.Millisecond, record)            // wheel
	k.MustSchedule(3*time.Millisecond, record)         // handle-bearing: heap
	k.AfterFunc(300*time.Millisecond, func(now Time) { // heap, reschedules into the wheel
		record(now)
		k.AfterFunc(2*time.Millisecond, record)
	})
	k.AfterFunc(255*time.Millisecond, record) // just inside the horizon: wheel
	k.Run()
	want := []Time{
		3 * time.Millisecond, 5 * time.Millisecond, 255 * time.Millisecond,
		300 * time.Millisecond, 302 * time.Millisecond, 500 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRunUntilLandsMidBucket stops the kernel between two events that share
// a wheel bucket: the horizon must split the bucket exactly.
func TestRunUntilLandsMidBucket(t *testing.T) {
	k := New(1)
	var got []Time
	record := func(now Time) { got = append(got, now) }
	for _, d := range []Time{1200, 1400, 1800} { // one bucket: tick 1 of 1ms
		k.AfterFunc(d*Time(time.Microsecond), record)
	}
	if n := k.RunUntil(1500 * time.Microsecond); n != 2 {
		t.Fatalf("RunUntil processed %d events, want 2", n)
	}
	if k.Now() != 1500*time.Microsecond {
		t.Fatalf("clock at %v, want 1.5ms", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending=%d, want the rest of the bucket", k.Pending())
	}
	// A fresh event due before the bucket remainder, landing in the
	// current tick, must still fire first.
	k.AfterFunc(100*time.Microsecond, record)
	k.Run()
	want := []Time{1200 * time.Microsecond, 1400 * time.Microsecond, 1600 * time.Microsecond, 1800 * time.Microsecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
}

// TestCancelHeapEventRacingBucketEvent pins the Cancel interaction across
// queues: a canceled handle event due at the same instant as a wheel event
// must not fire and must not perturb the wheel event.
func TestCancelHeapEventRacingBucketEvent(t *testing.T) {
	k := New(1)
	var got []int
	ev := k.MustSchedule(5*time.Millisecond, func(Time) { got = append(got, 0) }) // heap, seq 1
	k.AfterFunc(5*time.Millisecond, func(Time) { got = append(got, 1) })          // wheel, seq 2
	k.MustSchedule(5*time.Millisecond, func(Time) { got = append(got, 2) })       // heap, seq 3
	k.Cancel(ev)
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("firing order %v, want [1 2]", got)
	}
	if k.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v", k.Now())
	}
}

// TestPendingAcrossQueues checks Pending accounting over the heap, the
// immediate ring, and the wheel at once, including cancellation.
func TestPendingAcrossQueues(t *testing.T) {
	k := New(1)
	noop := func(Time) {}
	ev := k.MustSchedule(time.Second, noop) // heap
	k.MustSchedule(2*time.Second, noop)     // heap
	k.AfterFunc(0, noop)                    // immediate ring
	k.AfterFunc(5*time.Millisecond, noop)   // wheel
	k.AfterFunc(10*time.Millisecond, noop)  // wheel
	k.AfterFunc(500*time.Millisecond, noop) // past horizon: heap
	if k.Pending() != 6 {
		t.Fatalf("pending=%d, want 6", k.Pending())
	}
	k.Cancel(ev)
	if k.Pending() != 5 {
		t.Fatalf("pending=%d after cancel, want 5", k.Pending())
	}
	if !k.Step() { // drains the immediate event
		t.Fatal("step found nothing")
	}
	if k.Pending() != 4 {
		t.Fatalf("pending=%d after step, want 4", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("pending=%d after drain, want 0", k.Pending())
	}
}

// TestPendingSkipsCanceledHeapEvents pins the Pending fix: canceled events
// awaiting lazy removal are not live and must not be counted.
func TestPendingSkipsCanceledHeapEvents(t *testing.T) {
	k := New(1)
	noop := func(Time) {}
	evs := make([]*Event, 3)
	for i := range evs {
		evs[i] = k.MustSchedule(Time(i+1)*Time(time.Second), noop)
	}
	k.Cancel(evs[1])
	if k.Pending() != 2 {
		t.Fatalf("pending=%d with one canceled, want 2", k.Pending())
	}
	k.Cancel(evs[1]) // double cancel must not double-count
	if k.Pending() != 2 {
		t.Fatalf("pending=%d after double cancel, want 2", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("pending=%d after drain, want 0", k.Pending())
	}
	// Canceling an already-fired event is a no-op for the accounting too.
	k.Cancel(evs[0])
	if k.Pending() != 0 {
		t.Fatalf("pending=%d after post-fire cancel, want 0", k.Pending())
	}
}

// TestWithoutTimingWheel sanity-checks the heap-only configuration (the
// differential harness compares it exhaustively against the wheel).
func TestWithoutTimingWheel(t *testing.T) {
	k := New(1, WithoutTimingWheel())
	var got []Time
	for _, d := range []Time{5, 1, 3} {
		k.AfterFunc(d*Time(time.Millisecond), func(now Time) { got = append(got, now) })
	}
	if k.Pending() != 3 {
		t.Fatalf("pending=%d, want 3", k.Pending())
	}
	k.Run()
	want := []Time{time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
}
