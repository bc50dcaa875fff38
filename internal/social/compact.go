package social

// The interaction graph of the engines and their analyses. A graph keyed by
// actor name costs two map inserts and a key allocation per tie, which caps
// the gaming/social engines far below the north star's "millions of users".
// PairGraph stores the undirected weighted graph over int32 actor ids:
// degrees and presence are flat slices indexed by id, and the edge weights
// live in one open-addressed uint64→float64 table keyed by the packed
// (lo,hi) id pair — no per-edge allocation once the table has grown to its
// steady-state size, and no pointers for the GC to trace.
//
// The engines (gaming co-presence, social co-occurrence) accumulate into a
// PairGraph during the run, and the analyses (communities, toxicity) read
// it by id. Where an analysis orders actors by name, RankByName supplies
// the order. The package tests keep a string-keyed graph as the reference
// these results are pinned against.

import "sort"

// PairGraph is an undirected weighted graph over dense int32 actor ids.
// The zero id is a valid actor. Self edges and non-positive weights are
// ignored (the endpoints are still registered as actors).
type PairGraph struct {
	// Open-addressed hash table over packed pairs. keys[i] == 0 means empty:
	// the only key that packs to 0 is the self pair (0,0), which is never
	// stored. Linear probing, power-of-two capacity.
	keys []uint64
	vals []float64
	mask uint64
	// edges counts distinct stored pairs.
	edges int
	// degree and present are indexed by actor id; they grow by doubling, so
	// steady-state adds allocate nothing.
	degree  []float64
	present []bool
	actors  int
}

// NewPairGraph returns an empty graph pre-sized for actorHint actors and
// edgeHint distinct edges (either may be 0).
func NewPairGraph(actorHint, edgeHint int) *PairGraph {
	cap := uint64(16)
	for cap*7 < uint64(edgeHint)*10 {
		cap *= 2
	}
	g := &PairGraph{
		keys: make([]uint64, cap),
		vals: make([]float64, cap),
		mask: cap - 1,
	}
	if actorHint > 0 {
		g.degree = make([]float64, actorHint)
		g.present = make([]bool, actorHint)
	}
	return g
}

func packPair(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func unpackPair(key uint64) (int32, int32) {
	return int32(key >> 32), int32(uint32(key))
}

// hashKey is a Fibonacci multiply hash shifted right by 17, so the table
// index (hashKey(key) & mask) is the log2(len) bits of the product that
// start at bit 17, not its top bits. The shift fixes the table layout,
// which reaches Communities' vote order and so the report bytes.
func hashKey(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 17
}

func (g *PairGraph) ensure(id int32) {
	n := int(id) + 1
	if n <= len(g.present) {
		if !g.present[id] {
			g.present[id] = true
			g.actors++
		}
		return
	}
	grown := len(g.present) * 2
	if grown < n {
		grown = n
	}
	degree := make([]float64, grown)
	copy(degree, g.degree)
	present := make([]bool, grown)
	copy(present, g.present)
	g.degree, g.present = degree, present
	g.present[id] = true
	g.actors++
}

// AddActor registers an actor without interactions.
func (g *PairGraph) AddActor(id int32) { g.ensure(id) }

// AddEdge accumulates weight w on the undirected (a,b) tie. Both endpoints
// are registered as actors even when the edge itself is dropped (self edge
// or w ≤ 0).
func (g *PairGraph) AddEdge(a, b int32, w float64) {
	g.ensure(a)
	g.ensure(b)
	if a == b || w <= 0 {
		return
	}
	key := packPair(a, b)
	i := hashKey(key) & g.mask
	for {
		switch g.keys[i] {
		case key:
			g.vals[i] += w
			g.degree[a] += w
			g.degree[b] += w
			return
		case 0:
			g.keys[i] = key
			g.vals[i] = w
			g.edges++
			g.degree[a] += w
			g.degree[b] += w
			if uint64(g.edges)*10 > (g.mask+1)*7 {
				g.grow()
			}
			return
		}
		i = (i + 1) & g.mask
	}
}

func (g *PairGraph) grow() {
	oldKeys, oldVals := g.keys, g.vals
	cap := (g.mask + 1) * 2
	g.keys = make([]uint64, cap)
	g.vals = make([]float64, cap)
	g.mask = cap - 1
	for i, key := range oldKeys {
		if key == 0 {
			continue
		}
		j := hashKey(key) & g.mask
		for g.keys[j] != 0 {
			j = (j + 1) & g.mask
		}
		g.keys[j] = key
		g.vals[j] = oldVals[i]
	}
}

// TieStrength returns the accumulated weight between a and b.
func (g *PairGraph) TieStrength(a, b int32) float64 {
	if a == b {
		return 0
	}
	key := packPair(a, b)
	i := hashKey(key) & g.mask
	for {
		switch g.keys[i] {
		case key:
			return g.vals[i]
		case 0:
			return 0
		}
		i = (i + 1) & g.mask
	}
}

// NumEdges returns the number of distinct ties.
func (g *PairGraph) NumEdges() int { return g.edges }

// NumActors returns the number of registered actors.
func (g *PairGraph) NumActors() int { return g.actors }

// Present reports whether id has been registered.
func (g *PairGraph) Present(id int32) bool {
	return int(id) < len(g.present) && g.present[id]
}

// Degree returns the weighted degree of an actor.
func (g *PairGraph) Degree(id int32) float64 {
	if int(id) >= len(g.degree) {
		return 0
	}
	return g.degree[id]
}

// ForEachEdge calls f for every stored tie. Iteration order is the table
// order — deterministic for a fixed insertion sequence, but not sorted;
// callers needing a canonical order must sort what they collect.
func (g *PairGraph) ForEachEdge(f func(a, b int32, w float64)) {
	for i, key := range g.keys {
		if key == 0 {
			continue
		}
		a, b := unpackPair(key)
		f(a, b, g.vals[i])
	}
}

// RankByName returns rank[id] = position of name(id) in the lexicographic
// order of all registered actor names — the order name-keyed label
// propagation breaks ties in. Absent ids keep rank 0; they never vote.
func (g *PairGraph) RankByName(name func(int32) string) []int32 {
	ids := make([]int32, 0, g.actors)
	for id, ok := range g.present {
		if ok {
			ids = append(ids, int32(id))
		}
	}
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = name(id)
	}
	sort.Sort(&rankSort{ids: ids, names: names})
	rank := make([]int32, len(g.present))
	for pos, id := range ids {
		rank[id] = int32(pos)
	}
	return rank
}

type rankSort struct {
	ids   []int32
	names []string
}

func (s *rankSort) Len() int           { return len(s.ids) }
func (s *rankSort) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s *rankSort) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.names[i], s.names[j] = s.names[j], s.names[i]
}

// Communities clusters actors by synchronous weighted label propagation
// (the community structure behind "strong social relationships (ties)
// between users", ref [48]). Labels are actor ids; each actor takes the
// label of the heaviest vote among its neighbors, and a tie in vote weight
// resolves to the lower-ranked label, with rank (from RankByName) standing
// in for the lexicographic tie-break of name-keyed propagation. For any
// rank consistent with the name order, the returned labels equal the
// name-keyed labels under the id→name mapping — the vote sums are identical
// (same edges, and the integer-valued weights add exactly in any order) and
// the (weight desc, rank asc) argmax is order-independent.
//
// The returned slice is indexed by actor id; entries for unregistered ids
// are their own id and carry no meaning.
func (g *PairGraph) Communities(iterations int, rank []int32) []int32 {
	n := len(g.present)
	label := make([]int32, n)
	for i := range label {
		label[i] = int32(i)
	}
	if g.edges == 0 || iterations <= 0 {
		return label
	}
	// CSR adjacency: one pass to count, one to fill.
	count := make([]int32, n)
	g.ForEachEdge(func(a, b int32, _ float64) {
		count[a]++
		count[b]++
	})
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + count[i]
	}
	adjID := make([]int32, off[n])
	adjW := make([]float64, off[n])
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	g.ForEachEdge(func(a, b int32, w float64) {
		adjID[cursor[a]], adjW[cursor[a]] = b, w
		cursor[a]++
		adjID[cursor[b]], adjW[cursor[b]] = a, w
		cursor[b]++
	})

	next := make([]int32, n)
	voteW := make([]float64, n)
	touched := make([]int32, 0, 64)
	for it := 0; it < iterations; it++ {
		changed := false
		for a := 0; a < n; a++ {
			if !g.present[a] {
				next[a] = label[a]
				continue
			}
			touched = touched[:0]
			for e := off[a]; e < off[a+1]; e++ {
				l := label[adjID[e]]
				if voteW[l] == 0 {
					touched = append(touched, l)
				}
				voteW[l] += adjW[e]
			}
			best, bestW := label[a], 0.0
			for _, l := range touched {
				w := voteW[l]
				if w > bestW || (w == bestW && rank[l] < rank[best]) {
					best, bestW = l, w
				}
				voteW[l] = 0
			}
			next[a] = best
			if best != label[a] {
				changed = true
			}
		}
		label, next = next, label
		if !changed {
			break
		}
	}
	return label
}
