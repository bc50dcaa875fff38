package sim

import (
	"math/rand"
	"testing"
	"time"
)

// scheduleTimes admits the times in at as one stream.
func scheduleTimes(k *Kernel, at []Time, fn Handler) error {
	return k.ScheduleStream(len(at), func(i int) Time { return at[i] }, fn)
}

// TestScheduleStreamMatchesPerItemScheduleAt is the stream's determinism
// proof: the same sorted arrival set admitted as a stream and as the
// per-item ScheduleAt loop the engines used before streams must fire in the
// identical order, interleaved identically with reactive events the
// handlers schedule at runtime (zero-delay immediates, millisecond delays,
// second-long delays), including same-instant collisions between arrivals
// and reactive events.
func TestScheduleStreamMatchesPerItemScheduleAt(t *testing.T) {
	type record struct {
		tag string
		id  int
		at  Time
	}
	run := func(seed int64, arrivals []Time, useStream bool) []record {
		var log []record
		k := New(seed)
		// Each arrival spawns a reactive chain: an immediate, a millisecond
		// delay, and a second-long delay, some of which land exactly on later
		// arrival instants (duplicates in the arrival slice force ties).
		react := func(id int) {
			k.AfterFunc(0, func(now Time) { log = append(log, record{"imm", id, now}) })
			k.AfterFunc(Time(id%7+1)*Time(time.Millisecond), func(now Time) {
				log = append(log, record{"short", id, now})
			})
			k.AfterFunc(Time(id%5+1)*Time(time.Second), func(now Time) {
				log = append(log, record{"heap", id, now})
			})
		}
		if useStream {
			cursor := 0
			if err := scheduleTimes(k, arrivals, func(now Time) {
				id := cursor
				cursor++
				log = append(log, record{"arrive", id, now})
				react(id)
			}); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := range arrivals {
				id := i
				if _, err := k.ScheduleAt(arrivals[i], func(now Time) {
					log = append(log, record{"arrive", id, now})
					react(id)
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := k.Pending(); got < len(arrivals) {
			t.Fatalf("pending %d after admitting %d arrivals", got, len(arrivals))
		}
		k.Run()
		return log
	}

	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(60)
		arrivals := make([]Time, n)
		var clock Time
		for i := range arrivals {
			// Coarse whole-second steps (sometimes zero) make duplicate
			// arrival instants — and collisions with the second-granularity
			// heap delays — common rather than measure-zero.
			clock += Time(r.Intn(3)) * Time(time.Second)
			arrivals[i] = clock
		}
		seed := int64(trial)
		perItem := run(seed, arrivals, false)
		stream := run(seed, arrivals, true)
		if len(perItem) != len(stream) {
			t.Fatalf("trial %d: %d per-item records vs %d stream records", trial, len(perItem), len(stream))
		}
		for i := range perItem {
			if perItem[i] != stream[i] {
				t.Fatalf("trial %d: firing order diverges at %d: per-item %+v vs stream %+v", trial, i, perItem[i], stream[i])
			}
		}
	}
}

// TestScheduleStreamAccounting covers Pending/Processed bookkeeping and the
// RunUntil partial-drain path: stream items past the horizon stay admitted.
func TestScheduleStreamAccounting(t *testing.T) {
	k := New(1)
	arrivals := []Time{Time(time.Second), Time(2 * time.Second), Time(5 * time.Second)}
	fired := 0
	if err := scheduleTimes(k, arrivals, func(Time) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if got := k.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	k.RunUntil(Time(3 * time.Second))
	if fired != 2 {
		t.Fatalf("fired = %d after horizon 3s, want 2", fired)
	}
	if got := k.Pending(); got != 1 {
		t.Fatalf("Pending = %d after partial drain, want 1", got)
	}
	k.Run()
	if fired != 3 || k.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d after drain", fired, k.Pending())
	}
	if k.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", k.Processed())
	}
}

// TestScheduleStreamValidation covers the all-or-nothing admission errors.
func TestScheduleStreamValidation(t *testing.T) {
	k := New(1)
	if err := scheduleTimes(k, nil, func(Time) {}); err != nil {
		t.Errorf("empty stream: %v", err)
	}
	if err := scheduleTimes(k, []Time{0}, nil); err == nil {
		t.Error("nil handler accepted")
	}
	if err := scheduleTimes(k, []Time{Time(2 * time.Second), Time(time.Second)}, func(Time) {}); err == nil {
		t.Error("unsorted stream accepted")
	}
	k.AfterFunc(Time(time.Second), func(Time) {})
	k.Run()
	if err := scheduleTimes(k, []Time{0}, func(Time) {}); err == nil {
		t.Error("past stream item accepted")
	}
	if got := k.Pending(); got != 0 {
		t.Errorf("failed admissions left %d pending", got)
	}
}
