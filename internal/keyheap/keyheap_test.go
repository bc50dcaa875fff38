package keyheap

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// refEntry is one entry of the reference queue.
type refEntry struct {
	at  int64
	seq uint64
	v   uint32
}

func compareRef(x, y refEntry) int {
	if c := cmp.Compare(x.at, y.at); c != 0 {
		return c
	}
	return cmp.Compare(x.seq, y.seq)
}

// refQueue is the differential oracle: an unordered slice, sorted by
// (at, seq) with the standard library before a pop whenever a push came
// since the last sort.
type refQueue struct {
	live   []refEntry
	sorted bool
}

func (q *refQueue) push(e refEntry) {
	q.live = append(q.live, e)
	q.sorted = false
}

func (q *refQueue) pop() refEntry {
	if !q.sorted {
		slices.SortFunc(q.live, compareRef)
		q.sorted = true
	}
	e := q.live[0]
	q.live = q.live[1:]
	return e
}

// checkPop pops both queues and fails on any difference, in Top too.
func checkPop(t testing.TB, h *Heap[uint32], q *refQueue) {
	t.Helper()
	tat, tseq, tv := h.Top()
	at, seq, v := h.Pop()
	want := q.pop()
	if got := (refEntry{at, seq, v}); got != want {
		t.Fatalf("popped %+v, reference popped %+v", got, want)
	}
	if tat != at || tseq != seq || tv != v {
		t.Fatalf("Top said (%d, %d, %d), Pop returned (%d, %d, %d)", tat, tseq, tv, at, seq, v)
	}
	if h.Len() != len(q.live) {
		t.Fatalf("heap holds %d entries, reference %d", h.Len(), len(q.live))
	}
}

// drawAt draws a time key from a small set of negative and positive values,
// so equal times are common, plus the extremes of the type.
func drawAt(r *rand.Rand) int64 {
	switch r.Intn(16) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	default:
		return int64(r.Intn(64)-32) * 1000
	}
}

// TestHeapMatchesSortedReference interleaves batches of pushes and pops,
// growing the heap past 64k entries before draining it to empty, and
// demands the reference's order throughout. Sequence numbers are unique but
// arrive in random order and cover the whole uint64 range, so the tie-break
// on equal times is tested in both halves of the key.
func TestHeapMatchesSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var h Heap[uint32]
	var q refQueue
	var pushed uint32
	peak := 0
	push := func() {
		e := refEntry{at: drawAt(r), seq: r.Uint64()<<20 | uint64(pushed), v: pushed}
		pushed++
		h.Push(e.at, e.seq, e.v)
		q.push(e)
	}
	for phase := 0; phase < 60; phase++ {
		pushes, pops := 2000+r.Intn(2000), r.Intn(1500)
		if phase >= 40 {
			pushes, pops = r.Intn(1000), r.Intn(8000)
		}
		for range pushes {
			push()
		}
		peak = max(peak, h.Len())
		for i := 0; i < pops && h.Len() > 0; i++ {
			checkPop(t, &h, &q)
			if i%97 == 0 {
				push() // a lone push between pops
			}
		}
	}
	for h.Len() > 0 {
		checkPop(t, &h, &q)
	}
	if len(q.live) != 0 {
		t.Fatalf("reference holds %d entries after the heap drained", len(q.live))
	}
	if peak < 64<<10 {
		t.Fatalf("heap peaked at %d entries, want at least %d", peak, 64<<10)
	}
}

// TestEmptyPayloadEntriesAre16Bytes pins the entry layout banking's EDF
// queues rely on: a zero-size payload adds no padding.
func TestEmptyPayloadEntriesAre16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry[struct{}]{}); n != 16 {
		t.Fatalf("entry[struct{}] is %d bytes, want 16", n)
	}
}

// FuzzKeyHeap replays a byte program against the heap and the reference:
// an even byte pushes an entry whose time comes from the next byte (signed,
// so negative and equal times are common), an odd byte pops. Sequence
// numbers are unique and scrambled, so pops never follow push order by
// accident. The heap drains to empty at the end.
func FuzzKeyHeap(f *testing.F) {
	f.Add([]byte{0, 1, 1})
	f.Add([]byte{0, 128, 0, 127, 0, 0, 0, 128, 1, 1, 1, 1})
	prog := make([]byte, 512)
	rand.New(rand.NewSource(7)).Read(prog)
	f.Add(prog)
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Heap[uint32]
		var q refQueue
		var pushed uint32
		for pc := 0; pc < len(data); pc++ {
			if data[pc]%2 == 0 && pc+1 < len(data) {
				pc++
				at := int64(int8(data[pc])) << (data[pc-1] % 64)
				e := refEntry{at: at, seq: uint64(pushed) * 0x9E3779B97F4A7C15, v: pushed}
				pushed++
				h.Push(e.at, e.seq, e.v)
				q.push(e)
			} else if h.Len() > 0 {
				checkPop(t, &h, &q)
			}
		}
		for h.Len() > 0 {
			checkPop(t, &h, &q)
		}
	})
}
