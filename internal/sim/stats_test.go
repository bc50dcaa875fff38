package sim

// Kernel telemetry tests: the counters must attribute every fired event to
// the queue it was dispatched from, and attaching stats must be
// observationally invisible — same firing order, same clock, same RNG
// stream as an unobserved kernel.

import (
	"testing"
	"time"

	"mcs/internal/obs"
)

func TestKernelStatsCountDispatchPaths(t *testing.T) {
	st := &obs.KernelStats{}
	k := New(1, WithKernelStats(st))

	k.AfterFunc(0, func(Time) {})                           // immediate ring
	k.AfterFunc(5*Time(time.Millisecond), func(Time) {})    // heap
	k.AfterFunc(10*Time(time.Second), func(Time) {})        // heap
	k.MustSchedule(1*Time(time.Millisecond), func(Time) {}) // handle-bearing -> heap
	if err := scheduleTimes(k, []Time{Time(2 * time.Second)}, func(Time) {}); err != nil {
		t.Fatal(err)
	}
	ev := k.MustSchedule(3*Time(time.Second), func(Time) {})
	k.Cancel(ev)
	k.Run()

	snap := st.Snapshot()
	if snap.ImmediateDispatched != 1 {
		t.Errorf("immediate = %d, want 1", snap.ImmediateDispatched)
	}
	if snap.HeapDispatched != 3 {
		t.Errorf("heap = %d, want 3 (two AfterFunc + Schedule handle)", snap.HeapDispatched)
	}
	if snap.StreamDispatched != 1 {
		t.Errorf("stream = %d, want 1", snap.StreamDispatched)
	}
	if snap.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", snap.Canceled)
	}
	if got, want := snap.Dispatched(), k.Processed(); got != want {
		t.Errorf("dispatched sum %d != processed %d", got, want)
	}
}

func TestKernelStatsHeartbeatFiresOnSchedule(t *testing.T) {
	type beat struct {
		processed uint64
		now       time.Duration
	}
	var beats []beat
	st := &obs.KernelStats{
		HeartbeatEvery: 3,
		OnHeartbeat: func(processed uint64, now time.Duration) {
			beats = append(beats, beat{processed, now})
		},
	}
	k := New(2, WithKernelStats(st))
	for i := 1; i <= 10; i++ {
		k.AfterFunc(Time(i)*Time(time.Millisecond), func(Time) {})
	}
	k.Run()
	if len(beats) != 3 {
		t.Fatalf("got %d heartbeats for 10 events every 3, want 3: %+v", len(beats), beats)
	}
	for i, b := range beats {
		if want := uint64(3 * (i + 1)); b.processed != want {
			t.Errorf("beat %d at processed=%d, want %d", i, b.processed, want)
		}
	}
	if beats[2].now != 9*time.Millisecond {
		t.Errorf("beat 2 sim-clock = %v, want 9ms", beats[2].now)
	}
}

// TestKernelStatsDoNotPerturbExecution runs an identical mixed-API schedule
// on an observed and an unobserved kernel and requires the same firing
// order, final clock, and RNG stream — the read-only half of the
// observability contract.
func TestKernelStatsDoNotPerturbExecution(t *testing.T) {
	run := func(opts ...Option) (order []int, clock Time, draw float64) {
		k := New(99, opts...)
		record := func(id int) Handler {
			return func(Time) { order = append(order, id) }
		}
		k.AfterFunc(0, record(0))
		k.AfterFunc(2*Time(time.Millisecond), record(1))
		k.AfterFunc(2*Time(time.Millisecond), record(2))
		k.MustSchedule(1*Time(time.Millisecond), record(3))
		k.AfterFunc(500*Time(time.Millisecond), record(4))
		if err := scheduleTimes(k, []Time{Time(time.Millisecond), Time(time.Second)}, func(Time) {
			order = append(order, 5)
		}); err != nil {
			t.Fatal(err)
		}
		ev := k.MustSchedule(3*Time(time.Millisecond), record(6))
		k.Cancel(ev)
		k.Run()
		return order, k.Now(), k.Rand().Float64()
	}
	plainOrder, plainClock, plainDraw := run()
	st := &obs.KernelStats{HeartbeatEvery: 2, OnHeartbeat: func(uint64, time.Duration) {}}
	obsOrder, obsClock, obsDraw := run(WithKernelStats(st))

	if len(plainOrder) != len(obsOrder) {
		t.Fatalf("event counts differ: %d vs %d", len(plainOrder), len(obsOrder))
	}
	for i := range plainOrder {
		if plainOrder[i] != obsOrder[i] {
			t.Fatalf("firing order diverged at %d: %v vs %v", i, plainOrder, obsOrder)
		}
	}
	if plainClock != obsClock {
		t.Errorf("clock diverged: %v vs %v", plainClock, obsClock)
	}
	if plainDraw != obsDraw {
		t.Errorf("RNG stream diverged: %v vs %v", plainDraw, obsDraw)
	}
}
