package graphproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond: 0→1, 0→2, 1→3, 2→3 plus an isolated vertex 4.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(5, []Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasics(t *testing.T) {
	g := diamond(t)
	if g.NumVertices() != 5 || g.NumEdges() != 4 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if got := g.Out(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Out(0)=%v", got)
	}
	if got := g.In(3); len(got) != 2 {
		t.Errorf("In(3)=%v", got)
	}
	if g.OutDegree(4) != 0 || g.InDegree(4) != 0 {
		t.Error("isolated vertex has edges")
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{From: 0, To: 5}}, false); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromEdges(0, nil, false); err == nil {
		t.Error("zero vertices accepted")
	}
}

func TestBFSLevels(t *testing.T) {
	g := diamond(t)
	for _, e := range []Engine{Sequential, ParallelBSP} {
		d := BFS(g, 0, e)
		want := []int64{0, 1, 1, 2, -1}
		for i := range want {
			if d[i] != want[i] {
				t.Errorf("%v: BFS[%d]=%d, want %d", e, i, d[i], want[i])
			}
		}
	}
}

// Property (DESIGN invariant): BFS levels are shortest unweighted distances —
// cross-check against SSSP with unit weights on random graphs.
func TestBFSMatchesUnitSSSPProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, err := Generate(ER, 7, 4, false, r)
		if err != nil {
			return false
		}
		bfs := BFS(g, 0, Sequential)
		sssp := SSSP(g, 0, Sequential)
		for i := range bfs {
			if bfs[i] == -1 {
				if !math.IsInf(sssp[i], 1) {
					return false
				}
				continue
			}
			if float64(bfs[i]) != sssp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g, err := Generate(RMAT, 10, 8, false, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{Sequential, ParallelBSP} {
		pr := PageRank(g, 20, e)
		sum := 0.0
		for _, v := range pr {
			if v < 0 {
				t.Fatalf("%v: negative rank %v", e, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v: rank sum=%v, want 1", e, sum)
		}
	}
}

func TestPageRankHubGetsHighestRank(t *testing.T) {
	// Star: everyone links to vertex 0.
	var edges []Edge
	for i := int32(1); i < 50; i++ {
		edges = append(edges, Edge{From: i, To: 0})
	}
	g, err := FromEdges(50, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	pr := PageRank(g, 30, Sequential)
	for i := 1; i < 50; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("hub rank %v not above leaf %v", pr[0], pr[i])
		}
	}
}

func TestWCCPartition(t *testing.T) {
	// Two components: {0,1,2} and {3,4}.
	g, err := FromEdges(5, []Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 4, To: 3},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{Sequential, ParallelBSP} {
		labels := WCC(g, e)
		if labels[0] != labels[1] || labels[1] != labels[2] {
			t.Errorf("%v: first component split: %v", e, labels)
		}
		if labels[3] != labels[4] {
			t.Errorf("%v: second component split: %v", e, labels)
		}
		if labels[0] == labels[3] {
			t.Errorf("%v: components merged: %v", e, labels)
		}
		if labels[0] != 0 || labels[3] != 3 {
			t.Errorf("%v: labels not min-ids: %v", e, labels)
		}
	}
}

// Property (DESIGN invariant): WCC is a partition — same label iff connected
// (checked via reachability in the undirected graph).
func TestWCCPartitionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, err := Generate(ER, 6, 1, false, r)
		if err != nil {
			return false
		}
		labels := WCC(g, Sequential)
		// Undirected reachability from 0 must equal same-label-as-0.
		seen := make([]bool, g.NumVertices())
		queue := []int32{0}
		seen[0] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Out(v) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
			for _, u := range g.In(v) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		for v, s := range seen {
			if s != (labels[v] == labels[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

func TestCDLPCliquesConverge(t *testing.T) {
	// Two triangles joined by nothing: labels converge per-clique.
	g, err := FromEdges(6, []Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0},
		{From: 3, To: 4}, {From: 4, To: 5}, {From: 5, To: 3},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{Sequential, ParallelBSP} {
		labels := CDLP(g, 10, e)
		if labels[0] != labels[1] || labels[1] != labels[2] {
			t.Errorf("%v: clique 1 labels %v", e, labels[:3])
		}
		if labels[3] != labels[4] || labels[4] != labels[5] {
			t.Errorf("%v: clique 2 labels %v", e, labels[3:])
		}
	}
}

func TestLCCTriangleAndPath(t *testing.T) {
	// Triangle 0-1-2 (undirected via symmetric edges): LCC=1 everywhere.
	g, err := FromEdges(3, []Edge{
		{From: 0, To: 1}, {From: 1, To: 0},
		{From: 1, To: 2}, {From: 2, To: 1},
		{From: 2, To: 0}, {From: 0, To: 2},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{Sequential, ParallelBSP} {
		lcc := LCC(g, e)
		for v, c := range lcc {
			if math.Abs(c-1) > 1e-12 {
				t.Errorf("%v: triangle LCC[%d]=%v, want 1", e, v, c)
			}
		}
	}
	// Path 0-1-2: middle vertex has 2 unconnected neighbors → LCC 0.
	p, err := FromEdges(3, []Edge{
		{From: 0, To: 1}, {From: 1, To: 2},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	lcc := LCC(p, Sequential)
	if lcc[1] != 0 {
		t.Errorf("path LCC=%v, want 0", lcc[1])
	}
}

// Property: LCC ∈ [0,1] on arbitrary random graphs.
func TestLCCBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, err := Generate(RMAT, 6, 4, false, r)
		if err != nil {
			return false
		}
		for _, c := range LCC(g, Sequential) {
			if c < 0 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

func TestSSSPWeighted(t *testing.T) {
	g, err := FromEdges(4, []Edge{
		{From: 0, To: 1, Weight: 1},
		{From: 0, To: 2, Weight: 10},
		{From: 1, To: 2, Weight: 1},
		{From: 2, To: 3, Weight: 1},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	d := SSSP(g, 0, Sequential)
	want := []float64{0, 1, 2, 3}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("SSSP[%d]=%v, want %v", i, d[i], want[i])
		}
	}
}

func TestEnginesAgreeOnAllKernels(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g, err := Generate(RMAT, 9, 8, true, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		seqRes, err := RunAlgorithm(g, alg, Sequential)
		if err != nil {
			t.Fatal(err)
		}
		parRes, err := RunAlgorithm(g, alg, ParallelBSP)
		if err != nil {
			t.Fatal(err)
		}
		diff := math.Abs(seqRes.Checksum - parRes.Checksum)
		scale := math.Abs(seqRes.Checksum) + 1
		if diff/scale > 1e-6 {
			t.Errorf("%s: engines disagree: %v vs %v", alg, seqRes.Checksum, parRes.Checksum)
		}
		if seqRes.EVPS <= 0 {
			t.Errorf("%s: EVPS=%v", alg, seqRes.EVPS)
		}
	}
}

func TestGenerators(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, kind := range []GeneratorKind{RMAT, ER, Grid2D} {
		g, err := Generate(kind, 8, 8, false, r)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if g.NumVertices() < 256 || g.NumEdges() == 0 {
			t.Errorf("%v: V=%d E=%d", kind, g.NumVertices(), g.NumEdges())
		}
		if kind.String() == "" {
			t.Error("empty generator name")
		}
	}
	if _, err := Generate(RMAT, 0, 8, false, r); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := Generate(GeneratorKind(99), 8, 8, false, r); err == nil {
		t.Error("unknown generator accepted")
	}
}

// The D component of P-A-D: R-MAT is far more degree-skewed than ER or grid.
func TestDegreeSkewOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	rmat, err := Generate(RMAT, 12, 8, false, r)
	if err != nil {
		t.Fatal(err)
	}
	er, err := Generate(ER, 12, 8, false, r)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Generate(Grid2D, 12, 8, false, r)
	if err != nil {
		t.Fatal(err)
	}
	if rmat.DegreeSkew() <= er.DegreeSkew() {
		t.Errorf("RMAT skew %v not above ER %v", rmat.DegreeSkew(), er.DegreeSkew())
	}
	if er.DegreeSkew() <= grid.DegreeSkew() {
		t.Errorf("ER skew %v not above grid %v", er.DegreeSkew(), grid.DegreeSkew())
	}
}

func TestRunAlgorithmUnknown(t *testing.T) {
	g := diamond(t)
	if _, err := RunAlgorithm(g, "nope", Sequential); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func BenchmarkPageRankSequentialScale12(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g, err := Generate(RMAT, 12, 16, false, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRank(g, 10, Sequential)
	}
}

func BenchmarkPageRankParallelScale12(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g, err := Generate(RMAT, 12, 16, false, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRank(g, 10, ParallelBSP)
	}
}

func BenchmarkBFSScale14(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g, err := Generate(RMAT, 14, 16, false, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(g, 0, Sequential)
	}
}

// lccBySets is the clustering coefficient counted over per-vertex
// neighbour sets, the form LCC used before its sorted merge.
func lccBySets(g *Graph) []float64 {
	n := g.NumVertices()
	sets := make([]map[int32]bool, n)
	for v := int32(0); int(v) < n; v++ {
		sets[v] = map[int32]bool{}
		for _, u := range append(append([]int32(nil), g.Out(v)...), g.In(v)...) {
			if u != v {
				sets[v][u] = true
			}
		}
	}
	lcc := make([]float64, n)
	for v := range sets {
		d := len(sets[v])
		if d < 2 {
			continue
		}
		links := 0
		for u := range sets[v] {
			for w := range sets[u] {
				if w != int32(v) && sets[v][w] {
					links++
				}
			}
		}
		lcc[v] = float64(links) / float64(d*(d-1))
	}
	return lcc
}

// TestLCCMatchesNeighbourSets compares LCC bit for bit with the set-based
// count on random graphs with self-loops and repeated edges.
func TestLCCMatchesNeighbourSets(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		edges := make([]Edge, r.Intn(8*n))
		for i := range edges {
			edges[i] = Edge{From: int32(r.Intn(n)), To: int32(r.Intn(n))}
		}
		g, err := FromEdges(n, edges, false)
		if err != nil {
			t.Fatal(err)
		}
		want := lccBySets(g)
		for _, e := range []Engine{Sequential, ParallelBSP} {
			for v, got := range LCC(g, e) {
				if math.Float64bits(got) != math.Float64bits(want[v]) {
					t.Fatalf("seed %d %v: LCC[%d] = %v, want %v", seed, e, v, got, want[v])
				}
			}
		}
	}
}
