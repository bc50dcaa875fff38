package social

import (
	"math/rand"
	"strconv"
	"testing"
)

func pairName(id int32) string { return "u" + strconv.Itoa(int(id)) }

// randomTwinGraphs builds the same random interaction stream into both graph
// representations.
func randomTwinGraphs(seed int64, actors, adds int) (*PairGraph, *InteractionGraph) {
	r := rand.New(rand.NewSource(seed))
	pg := NewPairGraph(0, 0)
	ig := NewInteractionGraph()
	for i := 0; i < adds; i++ {
		a := int32(r.Intn(actors))
		b := int32(r.Intn(actors))
		w := float64(1 + r.Intn(3))
		pg.AddEdge(a, b, w)
		ig.AddInteraction(pairName(a), pairName(b), w)
	}
	return pg, ig
}

func TestPairGraphMatchesInteractionGraph(t *testing.T) {
	pg, ig := randomTwinGraphs(11, 60, 2000)
	if pg.NumEdges() != ig.NumEdges() {
		t.Fatalf("edges: %d vs %d", pg.NumEdges(), ig.NumEdges())
	}
	if pg.NumActors() != len(ig.Actors()) {
		t.Fatalf("actors: %d vs %d", pg.NumActors(), len(ig.Actors()))
	}
	for a := int32(0); a < 60; a++ {
		if pg.Degree(a) != ig.Degree(pairName(a)) {
			t.Errorf("degree(%d): %v vs %v", a, pg.Degree(a), ig.Degree(pairName(a)))
		}
		for b := a + 1; b < 60; b++ {
			if pg.TieStrength(a, b) != ig.TieStrength(pairName(a), pairName(b)) {
				t.Errorf("tie(%d,%d): %v vs %v", a, b,
					pg.TieStrength(a, b), ig.TieStrength(pairName(a), pairName(b)))
			}
		}
	}
}

// TestPairGraphCommunitiesMatchStringPropagation pins the rank-based label
// propagation to the string version: same communities under the id→name
// bijection — including the lexicographic tie-break, which the integer ids
// do NOT share (u2 > u10 as strings, 2 < 10 as ints).
func TestPairGraphCommunitiesMatchStringPropagation(t *testing.T) {
	for _, seed := range []int64{3, 7, 19} {
		pg, ig := randomTwinGraphs(seed, 30, 120)
		rank := pg.RankByName(pairName)
		gotLabels := pg.Communities(8, rank)
		wantLabels := ig.Communities(8)
		for a := int32(0); a < 30; a++ {
			if !pg.Present(a) {
				continue
			}
			if got, want := pairName(gotLabels[a]), wantLabels[pairName(a)]; got != want {
				t.Errorf("seed %d: label(%s) = %s, want %s", seed, pairName(a), got, want)
			}
		}
	}
}

func TestPairGraphSelfAndZeroWeightIgnored(t *testing.T) {
	g := NewPairGraph(0, 0)
	g.AddEdge(5, 5, 1)
	g.AddEdge(1, 2, 0)
	g.AddEdge(1, 2, -3)
	if g.NumEdges() != 0 {
		t.Errorf("edges=%d, want 0", g.NumEdges())
	}
	// ...but all endpoints register as actors, like AddInteraction.
	if g.NumActors() != 3 {
		t.Errorf("actors=%d, want 3 (5, 1, 2)", g.NumActors())
	}
	if !g.Present(5) || !g.Present(1) || !g.Present(2) || g.Present(0) {
		t.Error("presence wrong")
	}
}

// TestPairGraphZeroIDPair pins that the (0, b) pair — whose packed key has
// an all-zero high word — is stored and found despite 0 being the empty
// table sentinel (only the excluded self pair (0,0) packs to key 0).
func TestPairGraphZeroIDPair(t *testing.T) {
	g := NewPairGraph(0, 0)
	g.AddEdge(0, 7, 2)
	g.AddEdge(7, 0, 1)
	if got := g.TieStrength(0, 7); got != 3 {
		t.Errorf("tie(0,7)=%v, want 3", got)
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges=%d, want 1", g.NumEdges())
	}
}

func TestPairGraphSteadyStateAddAllocsZero(t *testing.T) {
	g := NewPairGraph(64, 256)
	for i := int32(0); i < 32; i++ {
		g.AddEdge(i, (i+1)%32, 1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		g.AddEdge(3, 4, 1)
		g.AddEdge(9, 2, 1)
	})
	if allocs != 0 {
		t.Errorf("steady-state AddEdge allocates %v per op, want 0", allocs)
	}
}
