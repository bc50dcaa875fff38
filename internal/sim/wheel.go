package sim

// This file implements the timing-wheel front-end of the event queue: a ring
// of per-tick buckets that absorbs the dense short-delay fire-and-forget
// traffic (gaming move/session events, FaaS completions, pipeline hand-offs)
// with O(1) inserts, while the binary heap remains the overflow level of the
// hierarchy for far-future and handle-bearing events.
//
// Determinism contract: the wheel must be observationally invisible. The
// kernel merges wheel, heap, immediate ring, and stream heads strictly by
// (time, sequence number), and within a bucket events are sorted by the same key before they
// drain, so the firing order is byte-identical to a heap-only kernel under
// every schedule. internal/sim's differential fuzz harness
// (FuzzKernelOrdering) replays random schedules through both kernels and a
// naive reference to enforce exactly that.
//
// Window discipline: an event is wheel-eligible only when its tick lies
// strictly after the current tick and within wheelBuckets ticks of now. The
// strict lower bound keeps a draining bucket append-free (events for the
// instant-in-progress go to the heap or the immediate ring), and the upper
// bound guarantees each ring slot holds at most one tick generation, so no
// cascading is ever needed — out-of-window events simply stay on the heap.

import "sort"

// Wheel geometry, tuned for the ecosystem models' dominant delay mix:
// sub-second completions and hand-offs at millisecond granularity. A 1ms
// tick × 256 buckets = a 256ms horizon; anything longer is heap traffic
// anyway (idle timeouts, diurnal arrivals), and anything denser still lands
// in the right bucket because ordering inside a bucket is by exact
// (time, seq), not by tick. A whole-millisecond tick also keeps models that
// schedule in round milliseconds from straddling tick boundaries (a delay
// of k ms always lands k ticks ahead), which measures faster end-to-end
// than a power-of-two tick despite the latter's cheaper shift-based
// slotting. Constant geometry lets the compiler strength-reduce the tick
// division to a multiply and the slot mask to an immediate.
const (
	wheelTick    = Time(1e6) // 1ms
	wheelBuckets = 256       // power of two: slot = tick & wheelMask
	wheelMask    = wheelBuckets - 1
)

// wheelEvent is a fire-and-forget event stored by value in a wheel bucket.
// Keeping the ordering key inline (no *Event indirection) makes the bucket
// sort compare without pointer chasing and spares the free list entirely —
// a wheel event is never allocated as an Event at all.
type wheelEvent struct {
	at  Time
	seq uint64
	fn  Handler
}

// timingWheel is a single-level timing wheel over absolute virtual time.
// Slot assignment is tick(at) & wheelMask, where tick(at) = at / wheelTick.
// Buckets keep their backing arrays when drained (reset to length zero in
// place), so steady-state operation allocates nothing. A fresh wheel must
// have curTick = -1.
type timingWheel struct {
	// buckets is the ring, allocated lazily on the first insert so kernels
	// that never schedule short delays pay nothing.
	buckets [][]wheelEvent
	count   int // live events across all buckets

	// minTick is a lower bound on the earliest non-empty tick; scan starts
	// there (or at the current tick, whichever is later).
	minTick int64
	// curTick is the tick whose bucket is currently sorted and draining
	// (-1 when no bucket is primed); curHead indexes its next event.
	curTick int64
	curHead int
}

// tickIndex maps an absolute time to its tick number.
func tickIndex(at Time) int64 { return int64(at / wheelTick) }

// wheelAdd files a fire-and-forget event into the wheel if its time lies
// within the window: strictly after the current tick and less than
// wheelBuckets ticks from now. It reports whether the event was taken (consuming a sequence
// number); otherwise the caller heaps it.
func (k *Kernel) wheelAdd(at Time, fn Handler) bool {
	w := k.wheel
	if w == nil {
		return false
	}
	t := tickIndex(at)
	nowT := tickIndex(k.now)
	if t <= nowT || t >= nowT+wheelBuckets {
		if k.stats != nil && t >= nowT+wheelBuckets {
			// Past the wheel horizon: the event overflows to the heap. (The
			// t <= nowT case is the current-instant window bound, not an
			// overflow.)
			k.stats.HorizonOverflow++
		}
		return false
	}
	if w.buckets == nil {
		w.buckets = make([][]wheelEvent, wheelBuckets)
	}
	k.seq++
	slot := t & wheelMask
	w.buckets[slot] = append(w.buckets[slot], wheelEvent{at: at, seq: k.seq, fn: fn})
	if w.count == 0 || t < w.minTick {
		w.minTick = t
	}
	if w.curTick >= 0 && t <= w.curTick {
		// The new event joined the primed bucket or an earlier bucket became
		// non-empty. The primed bucket cannot be mid-drain in either case:
		// draining implies now is inside curTick, and then the t > nowT
		// window bound would have routed any t <= curTick event to the heap.
		if t == w.curTick {
			// Keep the cursor: rotate the new event (necessarily the highest
			// seq, so it lands after every same-time sibling) into sorted
			// position instead of forcing a full re-sort.
			b := w.buckets[slot]
			pos := sort.Search(len(b)-1, func(i int) bool { return b[i].at > at })
			copy(b[pos+1:], b[pos:len(b)-1])
			b[pos] = wheelEvent{at: at, seq: k.seq, fn: fn}
		} else {
			// An earlier bucket now holds the wheel's front; re-prime lazily.
			w.curTick = -1
			w.curHead = 0
		}
	}
	w.count++
	return true
}

// scan returns the earliest non-empty tick without sorting it, advancing the
// minTick bound as it skips empty slots. The caller must ensure count > 0.
// The scan is bounded: every live event lies in
// [tick(now), tick(now)+wheelBuckets).
func (w *timingWheel) scan(now Time) int64 {
	t := tickIndex(now)
	if w.minTick > t {
		t = w.minTick
	}
	for len(w.buckets[t&wheelMask]) == 0 {
		t++
	}
	w.minTick = t
	return t
}

// prime sorts tick t's bucket and points the cursor at its head. Priming is
// deliberately lazy — Step skips it entirely when the heap or immediate ring
// is due before the bucket even starts, so a bucket still accumulating
// inserts is not repeatedly re-sorted.
func (w *timingWheel) prime(t int64) {
	sortBucket(w.buckets[t&wheelMask])
	w.curTick, w.curHead = t, 0
}

// pop removes and returns the cursor's event. The caller (Step) must have
// primed the cursor in the same step — it selects the wheel only after
// comparing the primed bucket's head against the other queues.
func (w *timingWheel) pop() (Time, Handler) {
	slot := w.curTick & wheelMask
	b := w.buckets[slot]
	ev := &b[w.curHead]
	at, fn := ev.at, ev.fn
	ev.fn = nil // release the closure before the bucket idles
	w.curHead++
	w.count--
	if w.curHead == len(b) {
		// Keep the backing array for reuse; only the length resets.
		w.buckets[slot] = b[:0]
		w.minTick = w.curTick + 1
		w.curTick = -1
		w.curHead = 0
	}
	return at, fn
}

// sortBucket orders a bucket by (time, seq) — the kernel's global firing
// order. Hand-specialized: pointer-free inline keys, median-of-three
// quicksort recursing on the smaller half, insertion sort below 25
// elements (buckets are usually small and nearly sorted). Measured ~10%
// faster end-to-end than slices.SortFunc on the kernel throughput
// benchmark, which is why the stdlib sort is not used here.
func sortBucket(b []wheelEvent) {
	for len(b) > 24 {
		// Median-of-three pivot, moved to b[last].
		mid, last := len(b)/2, len(b)-1
		if wheelLess(&b[mid], &b[0]) {
			b[mid], b[0] = b[0], b[mid]
		}
		if wheelLess(&b[last], &b[0]) {
			b[last], b[0] = b[0], b[last]
		}
		if wheelLess(&b[mid], &b[last]) {
			b[mid], b[last] = b[last], b[mid]
		}
		pivot := b[last]
		i := 0
		for j := 0; j < last; j++ {
			if wheelLess(&b[j], &pivot) {
				b[i], b[j] = b[j], b[i]
				i++
			}
		}
		b[i], b[last] = b[last], b[i]
		// Recurse on the smaller half, loop on the larger: O(log n) stack.
		if i < len(b)-i-1 {
			sortBucket(b[:i])
			b = b[i+1:]
		} else {
			sortBucket(b[i+1:])
			b = b[:i]
		}
	}
	for i := 1; i < len(b); i++ {
		ev := b[i]
		j := i - 1
		for j >= 0 && wheelLess(&ev, &b[j]) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = ev
	}
}

func wheelLess(a, b *wheelEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
