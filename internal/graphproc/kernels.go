package graphproc

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the six LDBC Graphalytics kernels (ref [42]) in two
// engine flavours: a sequential implementation and a parallel one built on
// vertex-range worker pools with superstep barriers (the BSP model the paper
// lists among the computational models MCS imports, §3.5).

// Engine selects the execution platform — the P of the P-A-D triangle.
type Engine int

// Engines.
const (
	Sequential Engine = iota + 1
	ParallelBSP
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case Sequential:
		return "sequential"
	case ParallelBSP:
		return "parallel-bsp"
	default:
		return "engine?"
	}
}

// parallelFor runs fn over [0,n) split into contiguous chunks on all cores.
func parallelFor(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// BFS returns the hop distance from source for every vertex (-1 when
// unreachable).
func BFS(g *Graph, source int32, e Engine) []int64 {
	dist := make([]int64, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if int(source) >= g.n || source < 0 {
		return dist
	}
	dist[source] = 0
	frontier := []int32{source}
	level := int64(0)
	for len(frontier) > 0 {
		level++
		if e == ParallelBSP && len(frontier) >= 1024 {
			// Superstep: scan the frontier in parallel, collect per-worker
			// next frontiers, merge at the barrier.
			workers := runtime.GOMAXPROCS(0)
			nexts := make([][]int32, workers)
			var wg sync.WaitGroup
			chunk := (len(frontier) + workers - 1) / workers
			var mu sync.Mutex
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if hi > len(frontier) {
					hi = len(frontier)
				}
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					var next []int32
					for _, v := range frontier[lo:hi] {
						for _, u := range g.Out(v) {
							mu.Lock()
							if dist[u] == -1 {
								dist[u] = level
								next = append(next, u)
							}
							mu.Unlock()
						}
					}
					nexts[w] = next
				}(w, lo, hi)
			}
			wg.Wait()
			frontier = frontier[:0]
			for _, next := range nexts {
				frontier = append(frontier, next...)
			}
			continue
		}
		var next []int32
		for _, v := range frontier {
			for _, u := range g.Out(v) {
				if dist[u] == -1 {
					dist[u] = level
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}

// PageRank runs iterations of the power method with damping 0.85, handling
// dangling vertices by uniform redistribution. The result sums to 1.
func PageRank(g *Graph, iterations int, e Engine) []float64 {
	const damping = 0.85
	n := g.n
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iterations; it++ {
		dangling := 0.0
		for v := int32(0); int(v) < n; v++ {
			if g.OutDegree(v) == 0 {
				dangling += rank[v]
			}
		}
		base := (1-damping)*inv + damping*dangling*inv
		compute := func(lo, hi int) {
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, u := range g.In(int32(v)) {
					sum += rank[u] / float64(g.OutDegree(u))
				}
				next[v] = base + damping*sum
			}
		}
		if e == ParallelBSP {
			parallelFor(n, compute)
		} else {
			compute(0, n)
		}
		rank, next = next, rank
	}
	return rank
}

// WCC labels weakly connected components: the result maps each vertex to the
// smallest vertex id in its component (treating edges as undirected). Both
// engines run Jacobi-style min-label propagation to a fixpoint: each
// superstep reads the previous labels and writes fresh ones, which keeps the
// parallel flavour race-free and both flavours deterministic.
func WCC(g *Graph, e Engine) []int64 {
	n := g.n
	label := make([]int64, n)
	next := make([]int64, n)
	for i := range label {
		label[i] = int64(i)
	}
	for {
		var changed atomic.Bool
		sweep := func(lo, hi int) {
			for v := lo; v < hi; v++ {
				best := label[v]
				for _, u := range g.Out(int32(v)) {
					if label[u] < best {
						best = label[u]
					}
				}
				for _, u := range g.In(int32(v)) {
					if label[u] < best {
						best = label[u]
					}
				}
				next[v] = best
				if best != label[v] {
					changed.Store(true)
				}
			}
		}
		if e == ParallelBSP {
			parallelFor(n, sweep)
		} else {
			sweep(0, n)
		}
		label, next = next, label
		if !changed.Load() {
			return label
		}
	}
}

// CDLP runs synchronous community detection by label propagation for the
// given number of iterations (the Graphalytics CDLP definition: each vertex
// adopts the most frequent label among its neighbors, ties to the smallest).
func CDLP(g *Graph, iterations int, e Engine) []int64 {
	n := g.n
	label := make([]int64, n)
	next := make([]int64, n)
	for i := range label {
		label[i] = int64(i)
	}
	for it := 0; it < iterations; it++ {
		compute := func(lo, hi int) {
			counts := make(map[int64]int)
			for v := lo; v < hi; v++ {
				clear(counts)
				for _, u := range g.Out(int32(v)) {
					counts[label[u]]++
				}
				for _, u := range g.In(int32(v)) {
					counts[label[u]]++
				}
				if len(counts) == 0 {
					next[v] = label[v]
					continue
				}
				best, bestCount := label[v], -1
				for l, c := range counts {
					if c > bestCount || (c == bestCount && l < best) {
						best, bestCount = l, c
					}
				}
				next[v] = best
			}
		}
		if e == ParallelBSP {
			parallelFor(n, compute)
		} else {
			compute(0, n)
		}
		label, next = next, label
	}
	return label
}

// LCC returns the local clustering coefficient of each vertex over the
// undirected view of the graph: triangles / possible wedges, in [0,1].
func LCC(g *Graph, e Engine) []float64 {
	n := g.n
	// The undirected view in CSR form: each vertex's out- and in-neighbours
	// merged into one sorted list, without duplicates or self-loops.
	off := make([]int32, n+1)
	adj := make([]int32, 0, len(g.edges)+len(g.inEdges))
	for v := int32(0); int(v) < n; v++ {
		adj = mergeNeighbors(adj, g.Out(v), g.In(v), v)
		off[v+1] = int32(len(adj))
	}
	lcc := make([]float64, n)
	compute := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nv := adj[off[v]:off[v+1]]
			d := len(nv)
			if d < 2 {
				continue
			}
			// Each neighbour u links to the neighbours of v it shares with v.
			links := 0
			for _, u := range nv {
				links += countCommon(nv, adj[off[u]:off[u+1]])
			}
			lcc[v] = float64(links) / float64(d*(d-1))
		}
	}
	if e == ParallelBSP {
		parallelFor(n, compute)
	} else {
		compute(0, n)
	}
	return lcc
}

// mergeNeighbors appends the union of the sorted lists a and b to dst,
// each vertex once and self left out.
func mergeNeighbors(dst, a, b []int32, self int32) []int32 {
	start := len(dst)
	add := func(u int32) {
		if u != self && (len(dst) == start || dst[len(dst)-1] != u) {
			dst = append(dst, u)
		}
	}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			add(a[i])
			i++
		} else {
			add(b[j])
			j++
		}
	}
	return dst
}

// countCommon returns the size of the intersection of two sorted lists
// without duplicates.
func countCommon(a, b []int32) int {
	c, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// SSSP returns single-source shortest-path distances over edge weights
// (Dijkstra; +Inf when unreachable). Unweighted graphs use weight 1.
func SSSP(g *Graph, source int32, _ Engine) []float64 {
	n := g.n
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if int(source) >= n || source < 0 {
		return dist
	}
	dist[source] = 0
	pq := &distHeap{{v: source, d: 0}}
	for pq.Len() > 0 {
		item, ok := heap.Pop(pq).(distItem)
		if !ok {
			break
		}
		if item.d > dist[item.v] {
			continue
		}
		ws := g.OutWeights(item.v)
		for i, u := range g.Out(item.v) {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			if nd := item.d + w; nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, distItem{v: u, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int32
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { item, _ := x.(distItem); *h = append(*h, item) }
func (h *distHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
