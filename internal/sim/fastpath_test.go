package sim

import (
	"testing"
	"time"
)

// TestAfterFuncFIFOWithScheduledEvents verifies that zero-delay AfterFunc
// events (immediate ring) and heap events due at the same instant interleave
// in exact scheduling order.
func TestAfterFuncFIFOWithScheduledEvents(t *testing.T) {
	k := New(1)
	var order []int
	k.MustSchedule(0, func(Time) { order = append(order, 0) })
	k.AfterFunc(0, func(Time) { order = append(order, 1) })
	k.MustSchedule(0, func(Time) { order = append(order, 2) })
	k.AfterFunc(0, func(Time) { order = append(order, 3) })
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed same-instant events fired out of order: %v", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
}

func TestAfterFuncNestedImmediate(t *testing.T) {
	k := New(1)
	var order []int
	k.AfterFunc(time.Second, func(now Time) {
		order = append(order, 0)
		k.AfterFunc(0, func(now Time) {
			order = append(order, 2)
			if now != time.Second {
				t.Errorf("immediate event at %v, want 1s", now)
			}
		})
		// Scheduled before the nested immediate above fires, but appended
		// after it: still FIFO at the instant.
		k.AfterFunc(0, func(Time) { order = append(order, 3) })
		order = append(order, 1)
	})
	k.AfterFunc(2*time.Second, func(Time) { order = append(order, 4) })
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("nested immediate order: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
}

func TestAfterFuncDelayedFiresAtRightTime(t *testing.T) {
	k := New(1)
	var at []Time
	for _, d := range []Time{5 * time.Second, time.Second, 3 * time.Second} {
		k.AfterFunc(d, func(now Time) { at = append(at, now) })
	}
	k.Run()
	want := []Time{time.Second, 3 * time.Second, 5 * time.Second}
	if len(at) != len(want) {
		t.Fatalf("fired %d events, want %d", len(at), len(want))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestAfterFuncNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative AfterFunc delay did not panic")
		}
	}()
	New(1).AfterFunc(-time.Second, func(Time) {})
}

// TestEventPoolRecycles verifies that fire-and-forget events are recycled:
// a long chain of AfterFunc events must not grow the free list beyond the
// chain's width.
func TestEventPoolRecycles(t *testing.T) {
	k := New(1)
	n := 0
	var step Handler
	step = func(Time) {
		n++
		if n < 10000 {
			k.AfterFunc(time.Millisecond, step)
		}
	}
	k.AfterFunc(time.Millisecond, step)
	k.Run()
	if n != 10000 {
		t.Fatalf("chain ran %d steps, want 10000", n)
	}
	depth := 0
	for ev := k.free; ev != nil; ev = ev.next {
		depth++
	}
	if depth > 2 {
		t.Errorf("free list depth %d after a width-1 chain; recycling broken", depth)
	}
}

func TestRunUntilWithImmediateRing(t *testing.T) {
	k := New(1)
	fired := 0
	k.AfterFunc(time.Second, func(Time) {
		k.AfterFunc(0, func(Time) { fired++ })
		fired++
	})
	k.AfterFunc(10*time.Second, func(Time) { fired++ })
	if n := k.RunUntil(5 * time.Second); n != 2 {
		t.Fatalf("RunUntil processed %d events, want 2", n)
	}
	if fired != 2 || k.Now() != 5*time.Second {
		t.Fatalf("fired=%d now=%v", fired, k.Now())
	}
	k.Run()
	if fired != 3 {
		t.Fatalf("fired=%d after drain, want 3", fired)
	}
}

// TestMixedAPIDeterminism runs the same model through every scheduling API
// twice and requires identical traces (paper C15–C16).
func TestMixedAPIDeterminism(t *testing.T) {
	run := func() []Time {
		k := New(99)
		var trace []Time
		var step Handler
		step = func(now Time) {
			trace = append(trace, now)
			if len(trace) >= 2000 {
				return
			}
			switch k.Rand().Intn(3) {
			case 0:
				k.AfterFunc(Time(k.Rand().Intn(50))*time.Millisecond, step)
			case 1:
				k.MustSchedule(Time(k.Rand().Intn(50))*time.Millisecond, step)
			default:
				if err := k.ScheduleStream([]Time{now + time.Millisecond}, step); err != nil {
					t.Fatal(err)
				}
			}
		}
		k.AfterFunc(0, step)
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
