// Package graphproc implements the generalized graph-processing platform of
// paper §6.6 and the Graphalytics-style benchmarking methodology of C16
// (ref [42]): a compact CSR graph representation, synthetic graph generators
// (R-MAT, Erdős–Rényi, 2-D grid), the six LDBC Graphalytics kernels (BFS,
// PageRank, WCC, CDLP, LCC, SSSP), and sequential and parallel execution
// engines whose comparison reproduces the P-A-D (platform–algorithm–dataset)
// performance triangle of refs [45], [46].
package graphproc

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is a directed graph in compressed-sparse-row form, with the reverse
// adjacency also materialized (several kernels need in-edges). Vertices are
// dense integers [0, N). Edge weights are optional (nil for unweighted).
type Graph struct {
	n       int
	offsets []int32 // len n+1
	edges   []int32
	weights []float64 // parallel to edges; nil if unweighted

	inOffsets []int32
	inEdges   []int32
}

// Edge is one directed edge with an optional weight.
type Edge struct {
	From, To int32
	Weight   float64
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Out returns the out-neighbors of v (shared slice; do not mutate).
func (g *Graph) Out(v int32) []int32 {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// OutWeights returns the weights parallel to Out(v); nil when unweighted.
func (g *Graph) OutWeights(v int32) []float64 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// In returns the in-neighbors of v (shared slice; do not mutate).
func (g *Graph) In(v int32) []int32 {
	return g.inEdges[g.inOffsets[v]:g.inOffsets[v+1]]
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int32) int { return int(g.offsets[v+1] - g.offsets[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v int32) int { return int(g.inOffsets[v+1] - g.inOffsets[v]) }

// FromEdges builds a graph with n vertices from an edge list. Self-loops are
// kept; duplicate edges are kept (multigraph semantics, as Graphalytics
// datasets allow). Weighted must be set to carry weights.
func FromEdges(n int, edges []Edge, weighted bool) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graphproc: %d vertices", n)
	}
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("graphproc: edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
	}
	g := &Graph{n: n}
	g.offsets = make([]int32, n+1)
	g.inOffsets = make([]int32, n+1)
	for _, e := range edges {
		g.offsets[e.From+1]++
		g.inOffsets[e.To+1]++
	}
	for i := 0; i < n; i++ {
		g.offsets[i+1] += g.offsets[i]
		g.inOffsets[i+1] += g.inOffsets[i]
	}
	g.edges = make([]int32, len(edges))
	g.inEdges = make([]int32, len(edges))
	if weighted {
		g.weights = make([]float64, len(edges))
	}
	outPos := append([]int32(nil), g.offsets[:n]...)
	inPos := append([]int32(nil), g.inOffsets[:n]...)
	for _, e := range edges {
		g.edges[outPos[e.From]] = e.To
		if weighted {
			w := e.Weight
			if w <= 0 {
				w = 1
			}
			g.weights[outPos[e.From]] = w
		}
		outPos[e.From]++
		g.inEdges[inPos[e.To]] = e.From
		inPos[e.To]++
	}
	// Sort adjacency lists for deterministic traversal order.
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		if g.weights == nil {
			sortInt32(g.edges[lo:hi])
		} else {
			sortEdgesWithWeights(g.edges[lo:hi], g.weights[lo:hi])
		}
		sortInt32(g.inEdges[g.inOffsets[v]:g.inOffsets[v+1]])
	}
	return g, nil
}

func sortInt32(xs []int32) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

func sortEdgesWithWeights(es []int32, ws []float64) {
	idx := make([]int, len(es))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return es[idx[i]] < es[idx[j]] })
	es2 := make([]int32, len(es))
	ws2 := make([]float64, len(ws))
	for i, k := range idx {
		es2[i] = es[k]
		ws2[i] = ws[k]
	}
	copy(es, es2)
	copy(ws, ws2)
}

// GeneratorKind selects a synthetic graph family.
type GeneratorKind int

// Graph families. RMAT has the skewed power-law-like degree distribution of
// social/web graphs (Graph500); ER is the uniform random baseline; Grid2D is
// the low-degree regular structure of meshes/road networks.
const (
	RMAT GeneratorKind = iota + 1
	ER
	Grid2D
)

// String implements fmt.Stringer.
func (k GeneratorKind) String() string {
	switch k {
	case RMAT:
		return "rmat"
	case ER:
		return "er"
	case Grid2D:
		return "grid2d"
	default:
		return "gen?"
	}
}

// Generate produces a synthetic graph of roughly 2^scale vertices with
// edgeFactor directed edges per vertex (Grid2D ignores edgeFactor). Set
// weighted to attach uniform(1,10) edge weights for SSSP.
func Generate(kind GeneratorKind, scale int, edgeFactor int, weighted bool, r *rand.Rand) (*Graph, error) {
	if scale < 1 || scale > 28 {
		return nil, fmt.Errorf("graphproc: scale %d out of [1,28]", scale)
	}
	if edgeFactor < 1 {
		edgeFactor = 16
	}
	n := 1 << scale
	var edges []Edge
	switch kind {
	case RMAT:
		edges = rmatEdges(scale, n*edgeFactor, r)
	case ER:
		edges = erEdges(n, n*edgeFactor, r)
	case Grid2D:
		edges = gridEdges(scale)
		n = gridSide(scale) * gridSide(scale)
	default:
		return nil, fmt.Errorf("graphproc: unknown generator %v", kind)
	}
	if weighted {
		for i := range edges {
			edges[i].Weight = 1 + 9*r.Float64()
		}
	}
	return FromEdges(n, edges, weighted)
}

// rmatEdges draws edges via the Graph500 R-MAT recursion with the canonical
// (a,b,c,d) = (0.57, 0.19, 0.19, 0.05).
func rmatEdges(scale, m int, r *rand.Rand) []Edge {
	const a, b, c = 0.57, 0.19, 0.19
	edges := make([]Edge, m)
	for i := 0; i < m; i++ {
		var u, v int32
		for bit := 0; bit < scale; bit++ {
			p := r.Float64()
			switch {
			case p < a:
				// stay
			case p < a+b:
				v |= 1 << bit
			case p < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges[i] = Edge{From: u, To: v}
	}
	return edges
}

// erEdges draws m uniformly random directed edges over n vertices.
func erEdges(n, m int, r *rand.Rand) []Edge {
	edges := make([]Edge, m)
	for i := 0; i < m; i++ {
		edges[i] = Edge{From: int32(r.Intn(n)), To: int32(r.Intn(n))}
	}
	return edges
}

func gridSide(scale int) int {
	side := 1
	for side*side < 1<<scale {
		side++
	}
	return side
}

// gridEdges builds a 4-connected 2-D torus with bidirectional edges.
func gridEdges(scale int) []Edge {
	side := gridSide(scale)
	var edges []Edge
	at := func(x, y int) int32 { return int32(y*side + x) }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			edges = append(edges,
				Edge{From: at(x, y), To: at((x+1)%side, y)},
				Edge{From: at(x, y), To: at(x, (y+1)%side)},
				Edge{From: at((x+1)%side, y), To: at(x, y)},
				Edge{From: at(x, (y+1)%side), To: at(x, y)},
			)
		}
	}
	return edges
}

// DegreeSkew returns max-degree / mean-degree — the dataset property that
// drives the D component of the P-A-D triangle.
func (g *Graph) DegreeSkew() float64 {
	if g.n == 0 || len(g.edges) == 0 {
		return 0
	}
	maxD := 0
	for v := int32(0); int(v) < g.n; v++ {
		if d := g.OutDegree(v); d > maxD {
			maxD = d
		}
	}
	mean := float64(len(g.edges)) / float64(g.n)
	return float64(maxD) / mean
}
