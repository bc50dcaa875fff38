package social

import (
	"math/rand"
	"testing"
)

// fuzzWeights are the edge weights a program can add: the non-positive
// ones must be dropped while still registering both endpoints.
var fuzzWeights = [5]float64{-1, 0, 1, 2, 3}

// runPairGraphProgram interprets prog as 3-byte ops over actor ids below 64
// and applies each op to both graphs. Per op byte: the low two bits pick
// the op — 0 AddActor(a), 1 and 2 AddEdge(a, b, w), 3 a fan of AddEdge(a,
// c, w) for every c < 64 — and the rest picks w from fuzzWeights. Fans
// reach most of the 2016 possible ties in a few bytes, so short programs
// already grow the table through several doublings.
func runPairGraphProgram(prog []byte) (*PairGraph, *InteractionGraph) {
	pg := NewPairGraph(0, 0)
	ig := NewInteractionGraph()
	for i := 0; i+2 < len(prog); i += 3 {
		op := prog[i]
		a, b := int32(prog[i+1]&63), int32(prog[i+2]&63)
		w := fuzzWeights[int(op>>2)%len(fuzzWeights)]
		switch op & 3 {
		case 0:
			pg.AddActor(a)
			ig.AddActor(pairName(a))
		case 1, 2:
			pg.AddEdge(a, b, w)
			ig.AddInteraction(pairName(a), pairName(b), w)
		case 3:
			for c := int32(0); c < 64; c++ {
				pg.AddEdge(a, c, w)
				ig.AddInteraction(pairName(a), pairName(c), w)
			}
		}
	}
	return pg, ig
}

// FuzzPairGraph runs byte programs of AddActor/AddEdge against the
// string-keyed reference and compares every query: edge and actor counts,
// degrees, the tie strength of every pair, and label propagation ranked by
// name against the name-keyed propagation. The weights are small integers,
// so the sums agree exactly in any order.
func FuzzPairGraph(f *testing.F) {
	// The zero-id pair, both directions, and a self edge on id 0.
	f.Add([]byte{1 | 2<<2, 0, 7, 2 | 3<<2, 7, 0, 1 | 2<<2, 0, 0, 0, 63, 0})
	// Dropped weights register both endpoints; a positive weight on the
	// same pair then stores the tie.
	f.Add([]byte{1, 1, 2, 1 | 1<<2, 3, 4, 2 | 4<<2, 1, 2})
	// Fans from every even id at weights 1, 2 and 3: 1520 ties, which grow
	// the table from 16 slots to 4096 (eight doublings).
	var fans []byte
	for a := byte(0); a < 64; a += 2 {
		fans = append(fans, 3|(2+a%3)<<2, a, 0)
	}
	f.Add(fans)
	// A random stream of single edges and actors.
	r := rand.New(rand.NewSource(1))
	stream := make([]byte, 3*600)
	r.Read(stream)
	f.Add(stream)

	f.Fuzz(func(t *testing.T, prog []byte) {
		pg, ig := runPairGraphProgram(prog)
		if pg.NumEdges() != ig.NumEdges() {
			t.Fatalf("edges: %d vs %d", pg.NumEdges(), ig.NumEdges())
		}
		if pg.NumActors() != len(ig.Actors()) {
			t.Fatalf("actors: %d vs %d", pg.NumActors(), len(ig.Actors()))
		}
		for a := int32(0); a < 64; a++ {
			if pg.Present(a) != ig.actors[pairName(a)] {
				t.Fatalf("present(%d): %v vs %v", a, pg.Present(a), ig.actors[pairName(a)])
			}
			if pg.Degree(a) != ig.Degree(pairName(a)) {
				t.Fatalf("degree(%d): %v vs %v", a, pg.Degree(a), ig.Degree(pairName(a)))
			}
			for b := int32(0); b < 64; b++ {
				if got, want := pg.TieStrength(a, b), ig.TieStrength(pairName(a), pairName(b)); got != want {
					t.Fatalf("tie(%d,%d): %v vs %v", a, b, got, want)
				}
			}
		}
		labels := pg.Communities(4, pg.RankByName(pairName))
		want := ig.Communities(4)
		for a := int32(0); a < 64; a++ {
			if !pg.Present(a) {
				continue
			}
			if got := pairName(labels[a]); got != want[pairName(a)] {
				t.Fatalf("label(%s) = %s, want %s", pairName(a), got, want[pairName(a)])
			}
		}
	})
}
