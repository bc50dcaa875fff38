package sim

// This file implements the sorted-stream source of the event queue, the
// kernel's one admission path for a pre-drawn, time-ordered timeline
// (workload arrivals, failure traces, trace replays): the whole timeline
// shares ONE handler and never materializes an event per item. The stream
// reads item times from the caller's own column through an accessor,
// behind a cursor: admission is O(n) validation, zero allocation per item,
// and the merge in step reads the cached head time only. Engines whose
// items are not already time-ordered walk a stably time-sorted index, and
// handlers that need per-item data walk their own column with a cursor in
// firing order.
//
// Determinism contract: a stream is observationally identical to scheduling
// its items one by one with ScheduleAt, in index order, at admission time.
// Such a loop consumes one sequence number per item, so a stream reserves
// the same contiguous block — item i fires with sequence base+1+i — and
// step merges stream heads with the other sources strictly by (time,
// sequence). Firing order, clock advance, and Pending accounting cannot
// differ between the two (TestScheduleStreamMatchesPerItemScheduleAt and
// the differential fuzz harness enforce this).

import (
	"fmt"
	"slices"
)

// eventStream is one admitted sorted stream: a cursor over n items whose
// times at reads from the caller's column, one shared handler, and the
// reserved sequence block's base.
type eventStream struct {
	at   func(i int) Time
	fn   Handler
	base uint64 // item i fires with sequence base+1+i
	next Time   // at(head), the time of the next item
	head int
	n    int
}

// ScheduleStream admits n fire-and-forget events, item i at absolute time
// at(i), all sharing one handler, with zero per-event allocation: the
// kernel reads the times through at as the stream advances (the caller must
// not change them), and a contiguous sequence block is reserved so the
// firing order is exactly that of scheduling each item with ScheduleAt in
// index order — same-instant items fire in index order, interleaved with
// other sources by (time, sequence). The times must not decrease, and the
// call is all-or-nothing: an out-of-order or past item admits nothing.
// Handlers that need per-item data keep their own cursor, which the
// kernel's strict in-order delivery keeps aligned with the stream head.
func (k *Kernel) ScheduleStream(n int, at func(i int) Time, fn Handler) error {
	if n <= 0 {
		return nil
	}
	if fn == nil {
		return fmt.Errorf("sim: stream handler is nil")
	}
	first := at(0)
	if first < k.now {
		return fmt.Errorf("%w: at=%v now=%v (stream item 0)", ErrPastEvent, first, k.now)
	}
	for i, prev := 1, first; i < n; i++ {
		t := at(i)
		if t < prev {
			return fmt.Errorf("sim: stream not sorted: item %d at %v before item %d at %v", i, t, i-1, prev)
		}
		prev = t
	}
	k.streams = append(k.streams, &eventStream{at: at, fn: fn, base: k.seq, next: first, n: n})
	k.seq += uint64(n)
	return nil
}

// streamPop advances past the stream's head item, dropping the stream from
// the merge set once exhausted (releasing the caller's column).
func (k *Kernel) streamPop(s *eventStream) Handler {
	fn := s.fn
	s.head++
	if s.head < s.n {
		s.next = s.at(s.head)
		return fn
	}
	i := slices.Index(k.streams, s)
	k.streams = slices.Delete(k.streams, i, i+1)
	return fn
}
