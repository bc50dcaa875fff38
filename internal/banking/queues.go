package banking

// Per-stage queue structures of the clearing pipeline. Both hold int32
// transaction handles (indices into the run's transaction column),
// never pointers, and both keep their backing arrays across pushes and
// pops, so steady-state queueing allocates nothing beyond amortized
// growth.
//
// FCFS is a wrapping ring buffer: O(1) push and pop, power-of-two capacity
// for mask indexing. EDF is a 4-ary min-heap keyed by (deadline,
// admission sequence): the seq tie-break reproduces the replaced linear
// scan's order exactly — the scan compared with a strict `<`, so the first
// QUEUED transaction won among equal deadlines, and per-push monotone
// sequence numbers encode precisely that (see
// TestEDFHeapMatchesLinearScanReference). 4-ary beats binary here because
// backlog queues are pop-heavy (every pull sifts down); halving the tree
// depth trades four comparisons per level for half the levels and much
// better locality over the flat entry array.

import "time"

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

// edfEntry is one queued transaction: its deadline, then the admission
// sequence in the high 32 bits of key and the handle in the low 32, so
// comparing keys compares sequence numbers, which are unique per heap.
type edfEntry struct {
	deadline time.Duration
	key      uint64
}

func (e edfEntry) less(f edfEntry) bool {
	return e.deadline < f.deadline || e.deadline == f.deadline && e.key < f.key
}

// edfHeap is a 4-ary min-heap of transaction handles keyed by (deadline,
// admission sequence), one 16-byte entry per queued transaction. Sifts
// move a hole and write the moving entry once, where it lands.
type edfHeap struct {
	a    []edfEntry
	next uint64 // admission sequence counter, monotone per push
}

func (q *edfHeap) len() int { return len(q.a) }

func (q *edfHeap) push(h int32, deadline time.Duration) {
	e := edfEntry{deadline: deadline, key: q.next<<32 | uint64(uint32(h))}
	q.next++
	q.a = append(q.a, e)
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(q.a[p]) {
			break
		}
		q.a[i] = q.a[p]
		i = p
	}
	q.a[i] = e
}

// pop removes and returns the handle with the least (deadline, seq) key.
func (q *edfHeap) pop() int32 {
	h := int32(uint32(q.a[0].key))
	last := len(q.a) - 1
	e := q.a[last]
	q.a = q.a[:last]
	if last == 0 {
		return h
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= last {
			break
		}
		m, end := c, min(c+4, last)
		for j := c + 1; j < end; j++ {
			if q.a[j].less(q.a[m]) {
				m = j
			}
		}
		if !q.a[m].less(e) {
			break
		}
		q.a[i] = q.a[m]
		i = m
	}
	q.a[i] = e
	return h
}
