package banking

// Per-stage queue structures of the clearing pipeline. Both hold int32
// transaction handles (indices into the run's transaction column),
// never pointers, and both keep their backing arrays across pushes and
// pops, so steady-state queueing allocates nothing beyond amortized
// growth.
//
// FCFS is a wrapping ring buffer: O(1) push and pop, power-of-two capacity
// for mask indexing. EDF is a keyheap.Heap — the kernel's own event heap —
// keyed by (deadline, admission sequence): the seq tie-break reproduces the
// replaced linear scan's order exactly — the scan compared with a strict
// `<`, so the first QUEUED transaction won among equal deadlines, and
// per-push monotone sequence numbers encode precisely that (see
// TestEDFHeapMatchesLinearScanReference). Backlog queues are pop-heavy
// (every pull sifts down), which is what the heap's 4-ary layout and
// branch-free child tournament are for.

import (
	"time"

	"mcs/internal/keyheap"
)

// handleRing is a growable FIFO ring buffer of transaction handles.
type handleRing struct {
	buf  []int32 // power-of-two length
	head int
	n    int
}

func (r *handleRing) len() int { return r.n }

func (r *handleRing) push(h int32) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = h
	r.n++
}

func (r *handleRing) pop() int32 {
	h := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return h
}

// grow doubles the backing array, unwrapping the live window to the front.
func (r *handleRing) grow() {
	size := 2 * len(r.buf)
	if size < 16 {
		size = 16
	}
	buf := make([]int32, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// edfHeap is a min-heap of transaction handles keyed by (deadline,
// admission sequence), one 16-byte entry per queued transaction: the
// sequence number takes the high 32 bits of the key's seq and the handle
// the low 32, so comparing keys compares sequence numbers, which are
// unique per heap.
type edfHeap struct {
	h    keyheap.Heap[struct{}]
	next uint64 // admission sequence counter, monotone per push
}

func (q *edfHeap) len() int { return q.h.Len() }

func (q *edfHeap) push(h int32, deadline time.Duration) {
	q.h.Push(int64(deadline), q.next<<32|uint64(uint32(h)), struct{}{})
	q.next++
}

// pop removes and returns the handle with the least (deadline, seq) key.
func (q *edfHeap) pop() int32 {
	_, seq, _ := q.h.Pop()
	return int32(uint32(seq))
}
