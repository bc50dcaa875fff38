package social

// The string-keyed interaction graph: the reference PairGraph is pinned
// against. It is the plain form of the same undirected weighted graph —
// maps keyed by actor name and by name pair — and the label propagation
// PairGraph.Communities reproduces with a rank in place of the names.

import (
	"sort"
	"time"

	"mcs/internal/workload"
)

// InteractionGraph is an undirected weighted graph over string-keyed actors
// (users, players). Edge weight counts interactions (the implicit ties of
// refs [82], [102]).
type InteractionGraph struct {
	weights map[[2]string]float64
	actors  map[string]bool
	degree  map[string]float64
}

// NewInteractionGraph returns an empty graph.
func NewInteractionGraph() *InteractionGraph {
	return &InteractionGraph{
		weights: make(map[[2]string]float64),
		actors:  make(map[string]bool),
		degree:  make(map[string]float64),
	}
}

func edgeKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// AddInteraction records weight w of interaction between a and b (self
// interactions are ignored).
func (g *InteractionGraph) AddInteraction(a, b string, w float64) {
	g.actors[a] = true
	g.actors[b] = true
	if a == b || w <= 0 {
		return
	}
	g.weights[edgeKey(a, b)] += w
	g.degree[a] += w
	g.degree[b] += w
}

// AddActor registers an actor without interactions.
func (g *InteractionGraph) AddActor(a string) { g.actors[a] = true }

// TieStrength returns the accumulated interaction weight between a and b.
func (g *InteractionGraph) TieStrength(a, b string) float64 {
	return g.weights[edgeKey(a, b)]
}

// Actors returns all actors in sorted order.
func (g *InteractionGraph) Actors() []string {
	out := make([]string, 0, len(g.actors))
	for a := range g.actors {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// NumEdges returns the number of distinct ties.
func (g *InteractionGraph) NumEdges() int { return len(g.weights) }

// Degree returns the weighted degree of an actor.
func (g *InteractionGraph) Degree(a string) float64 { return g.degree[a] }

// Communities clusters actors by synchronous label propagation (the
// community structure behind "strong social relationships (ties) between
// users", ref [48]). It returns a map actor → community label, where the
// label is the lexicographically smallest member.
func (g *InteractionGraph) Communities(iterations int) map[string]string {
	label := make(map[string]string, len(g.actors))
	for a := range g.actors {
		label[a] = a
	}
	actors := g.Actors()
	for it := 0; it < iterations; it++ {
		next := make(map[string]string, len(label))
		changed := false
		for _, a := range actors {
			// Weighted vote among neighbor labels, ties to smallest label.
			votes := make(map[string]float64)
			for k, w := range g.weights {
				var other string
				switch a {
				case k[0]:
					other = k[1]
				case k[1]:
					other = k[0]
				default:
					continue
				}
				votes[label[other]] += w
			}
			best, bestW := label[a], 0.0
			for l, w := range votes {
				if w > bestW || (w == bestW && l < best) {
					best, bestW = l, w
				}
			}
			next[a] = best
			if best != label[a] {
				changed = true
			}
		}
		label = next
		if !changed {
			break
		}
	}
	return label
}

// FromWorkload builds the implicit interaction graph of a workload: users
// whose jobs overlap within the window interact with weight 1 per
// co-occurrence — the implicit-tie construction of refs [105], [108].
func FromWorkload(w *workload.Workload, window time.Duration) *InteractionGraph {
	g := NewInteractionGraph()
	for i := range w.Jobs {
		g.AddActor(w.Jobs[i].User)
		for j := i + 1; j < len(w.Jobs); j++ {
			if w.Jobs[j].Submit-w.Jobs[i].Submit > window {
				break
			}
			if w.Jobs[i].User != w.Jobs[j].User {
				g.AddInteraction(w.Jobs[i].User, w.Jobs[j].User, 1)
			}
		}
	}
	return g
}
