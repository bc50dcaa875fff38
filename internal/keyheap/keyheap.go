// Package keyheap is a 4-ary min-heap of entries keyed by (at, seq) that
// carry a small payload: the simulation kernel's event queue (payload: a
// slab slot) and banking's EDF queues (payload: none; the handle rides in
// seq) both sit on it.
//
// Sifts move a hole and write the moving entry once, where it lands, and
// Pop picks the least of a full family of four children by a branch-free
// tournament: each comparison subtracts the 128-bit keys and reads the
// borrow. The time half of the key is stored with its sign bit flipped, so
// negative times order below positive ones under that unsigned subtract.
//
// Callers keep keys unique (seq is unique per heap), so the pop order is
// fixed by the set of entries alone, never by the heap's layout or by the
// order of the pushes that built it.
package keyheap

import "math/bits"

// signBit flips int64 order into uint64 order.
const signBit = 1 << 63

// entry is one queued key and its payload. The payload comes first, so a
// zero-size payload adds no padding: a Heap[struct{}] entry is 16 bytes.
type entry[V any] struct {
	v   V
	at  uint64 // the time key with its sign bit flipped
	seq uint64
}

// Heap is a min-heap by (at, seq). The zero value is an empty heap.
type Heap[V any] struct {
	a []entry[V]
}

// Len returns the number of queued entries.
func (h *Heap[V]) Len() int { return len(h.a) }

// Top returns the least entry without removing it. The heap must not be
// empty.
func (h *Heap[V]) Top() (at int64, seq uint64, v V) {
	e := &h.a[0]
	return int64(e.at ^ signBit), e.seq, e.v
}

// Push queues v under the key (at, seq).
func (h *Heap[V]) Push(at int64, seq uint64, v V) {
	e := entry[V]{v: v, at: uint64(at) ^ signBit, seq: seq}
	a := append(h.a, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if less(&e, &a[p]) == 0 {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
	h.a = a
}

// Pop removes and returns the least entry. The heap must not be empty.
func (h *Heap[V]) Pop() (at int64, seq uint64, v V) {
	a := h.a
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a = a[:n]
	h.a = a
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			var m int
			if c+3 < n {
				// A full family: a branch-free tournament over the four.
				x := c + less(&a[c+1], &a[c])
				y := c + 2 + less(&a[c+3], &a[c+2])
				m = x + (y-x)*less(&a[y], &a[x])
			} else if c < n {
				m = c
				for j := c + 1; j < n; j++ {
					m += (j - m) * less(&a[j], &a[m])
				}
			} else {
				break
			}
			if less(&last, &a[m]) == 1 {
				break
			}
			a[i] = a[m]
			i = m
		}
		a[i] = last
	}
	return int64(top.at ^ signBit), top.seq, top.v
}

// less is 1 when x's key is below y's and 0 otherwise. It subtracts the
// 128-bit keys and reads the borrow, so it compiles without a branch.
func less[V any](x, y *entry[V]) int {
	_, borrow := bits.Sub64(x.seq, y.seq, 0)
	_, borrow = bits.Sub64(x.at, y.at, borrow)
	return int(borrow)
}
