package gaming

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"mcs/internal/social"
)

// refGraph is the part of the string-keyed interaction graph the reference
// toxicity functions read: the sorted actor names and weighted degrees.
type refGraph struct {
	actors []string
	degree map[string]float64
}

func (g *refGraph) Actors() []string        { return g.actors }
func (g *refGraph) Degree(a string) float64 { return g.degree[a] }

// newRefGraph renders the players registered in ties (ids 0..maxID) and
// their weighted degrees under playerName.
func newRefGraph(ties *social.PairGraph, maxID int) *refGraph {
	g := &refGraph{degree: make(map[string]float64)}
	for id := 0; id <= maxID; id++ {
		if ties.Present(int32(id)) {
			g.actors = append(g.actors, playerName(id))
		}
	}
	sort.Strings(g.actors)
	ties.ForEachEdge(func(a, b int32, w float64) {
		g.degree[playerName(int(a))] += w
		g.degree[playerName(int(b))] += w
	})
	return g
}

// The two functions below are the string-keyed toxicity analysis the id
// columns replace, kept verbatim but for the graph type.

func refToxicityGroundTruth(g *refGraph, toxicFraction float64, r *rand.Rand) (map[string]bool, map[string]float64) {
	actors := g.Actors()
	toxic := make(map[string]bool)
	reports := make(map[string]float64, len(actors))
	for _, a := range actors {
		isToxic := r.Float64() < toxicFraction
		toxic[a] = isToxic
		// Reports scale with social exposure (degree); toxic players draw
		// ~6x the report rate of ordinary friction. Exponential noise makes
		// the two populations overlap, so detection has a real
		// precision/recall trade-off.
		exposure := g.Degree(a) + 1
		rate := 0.05
		if isToxic {
			rate = 0.3
		}
		mean := exposure * rate
		reports[a] = mean * r.ExpFloat64()
	}
	return toxic, reports
}

type refToxicityDetection struct {
	Threshold         float64
	Flagged           []string
	Precision, Recall float64
	TruePositives     int
	FalsePositives    int
	FalseNegatives    int
}

func refDetectToxicity(g *refGraph, reports map[string]float64, truth map[string]bool, threshold float64) refToxicityDetection {
	det := refToxicityDetection{Threshold: threshold}
	for _, a := range g.Actors() {
		exposure := g.Degree(a) + 1
		flagged := reports[a]/exposure > threshold
		if flagged {
			det.Flagged = append(det.Flagged, a)
			if truth[a] {
				det.TruePositives++
			} else {
				det.FalsePositives++
			}
		} else if truth[a] {
			det.FalseNegatives++
		}
	}
	sort.Strings(det.Flagged)
	if det.TruePositives+det.FalsePositives > 0 {
		det.Precision = float64(det.TruePositives) / float64(det.TruePositives+det.FalsePositives)
	}
	if det.TruePositives+det.FalseNegatives > 0 {
		det.Recall = float64(det.TruePositives) / float64(det.TruePositives+det.FalseNegatives)
	}
	return det
}

// TestToxicityMatchesStringReference pins the id-column toxicity analysis
// to the string-keyed one bit for bit on seeded worlds: the same players
// draw the same numbers in the same order, so the toxic set, every report,
// the flagged players and the scores all agree exactly.
func TestToxicityMatchesStringReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := smallWorld()
		cfg.Horizon = 6 * time.Hour
		cfg.Seed = seed
		res, err := RunWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefGraph(res.Ties, res.PlayersServed)
		if len(ref.actors) != res.Ties.NumActors() {
			t.Fatalf("seed %d: %d reference actors, %d registered", seed, len(ref.actors), res.Ties.NumActors())
		}

		toxic, reports := ToxicityGroundTruth(res.Ties, 0.05, rand.New(rand.NewSource(seed+40)))
		refToxic, refReports := refToxicityGroundTruth(ref, 0.05, rand.New(rand.NewSource(seed+40)))
		nToxic := 0
		for id := range toxic {
			name := playerName(id)
			if toxic[id] != refToxic[name] {
				t.Errorf("seed %d: toxic(%s) = %v, want %v", seed, name, toxic[id], refToxic[name])
			}
			if math.Float64bits(reports[id]) != math.Float64bits(refReports[name]) {
				t.Errorf("seed %d: reports(%s) = %v, want %v", seed, name, reports[id], refReports[name])
			}
			if toxic[id] {
				nToxic++
			}
		}
		if nToxic == 0 {
			t.Fatalf("seed %d: no toxic players drawn", seed)
		}

		for _, threshold := range []float64{0.1, 0.15, 0.2, 0.25} {
			det := DetectToxicity(res.Ties, reports, toxic, threshold)
			want := refDetectToxicity(ref, refReports, refToxic, threshold)
			flagged := make([]string, len(det.Flagged))
			for i, id := range det.Flagged {
				flagged[i] = playerName(int(id))
			}
			if len(flagged) != len(want.Flagged) {
				t.Fatalf("seed %d @%.2f: flagged %d, want %d", seed, threshold, len(flagged), len(want.Flagged))
			}
			for i := range flagged {
				if flagged[i] != want.Flagged[i] {
					t.Fatalf("seed %d @%.2f: flagged[%d] = %s, want %s", seed, threshold, i, flagged[i], want.Flagged[i])
				}
			}
			if det.TruePositives != want.TruePositives || det.FalsePositives != want.FalsePositives ||
				det.FalseNegatives != want.FalseNegatives {
				t.Errorf("seed %d @%.2f: TP/FP/FN = %d/%d/%d, want %d/%d/%d", seed, threshold,
					det.TruePositives, det.FalsePositives, det.FalseNegatives,
					want.TruePositives, want.FalsePositives, want.FalseNegatives)
			}
			if math.Float64bits(det.Precision) != math.Float64bits(want.Precision) ||
				math.Float64bits(det.Recall) != math.Float64bits(want.Recall) {
				t.Errorf("seed %d @%.2f: precision/recall = %v/%v, want %v/%v", seed, threshold,
					det.Precision, det.Recall, want.Precision, want.Recall)
			}
		}
	}
}
