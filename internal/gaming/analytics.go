package gaming

import (
	"math/rand"

	"mcs/internal/social"
)

// This file implements the Gaming Analytics function of Figure 4: analyses
// over the play interaction graph, including the toxicity-detection use case
// the paper cites ([35], "Toxicity detection in multiplayer online games")
// as an example of steering emergent (anti-social) behaviour (P9, C5).

// playersByName returns the registered player ids of g in lexicographic
// order of their names ("p"+id), the order the analyses walk players in.
func playersByName(g *social.PairGraph) []int32 {
	rank := g.RankByName(func(id int32) string { return playerName(int(id)) })
	order := make([]int32, g.NumActors())
	for id, pos := range rank {
		if g.Present(int32(id)) {
			order[pos] = int32(id)
		}
	}
	return order
}

// ToxicityGroundTruth synthesizes per-player toxicity: a small fraction of
// players are toxic, and toxic players generate disproportionately many
// negative interactions. It returns the toxic flag and the count of negative
// reports of every player registered in the tie graph, as columns indexed by
// player id (ids the graph never registered read false and 0). Players draw
// in name order, one Float64 and then one ExpFloat64 each.
func ToxicityGroundTruth(g *social.PairGraph, toxicFraction float64, r *rand.Rand) (toxic []bool, reports []float64) {
	order := playersByName(g)
	n := 0
	for _, id := range order {
		n = max(n, int(id)+1)
	}
	toxic = make([]bool, n)
	reports = make([]float64, n)
	for _, id := range order {
		isToxic := r.Float64() < toxicFraction
		toxic[id] = isToxic
		// Reports scale with social exposure (degree); toxic players draw
		// ~6x the report rate of ordinary friction. Exponential noise makes
		// the two populations overlap, so detection has a real
		// precision/recall trade-off.
		exposure := g.Degree(id) + 1
		rate := 0.05
		if isToxic {
			rate = 0.3
		}
		mean := exposure * rate
		reports[id] = mean * r.ExpFloat64()
	}
	return toxic, reports
}

// ToxicityDetection is the outcome of threshold-based detection.
type ToxicityDetection struct {
	Threshold float64
	// Flagged holds the flagged player ids in name order.
	Flagged           []int32
	Precision, Recall float64
	TruePositives     int
	FalsePositives    int
	FalseNegatives    int
}

// DetectToxicity flags players whose report rate per unit of exposure
// exceeds the threshold, and scores the detector against ground truth.
// reports and truth are the per-id columns of ToxicityGroundTruth.
func DetectToxicity(g *social.PairGraph, reports []float64, truth []bool, threshold float64) ToxicityDetection {
	det := ToxicityDetection{Threshold: threshold}
	for _, id := range playersByName(g) {
		exposure := g.Degree(id) + 1
		flagged := reports[id]/exposure > threshold
		if flagged {
			det.Flagged = append(det.Flagged, id)
			if truth[id] {
				det.TruePositives++
			} else {
				det.FalsePositives++
			}
		} else if truth[id] {
			det.FalseNegatives++
		}
	}
	if det.TruePositives+det.FalsePositives > 0 {
		det.Precision = float64(det.TruePositives) / float64(det.TruePositives+det.FalsePositives)
	}
	if det.TruePositives+det.FalseNegatives > 0 {
		det.Recall = float64(det.TruePositives) / float64(det.TruePositives+det.FalseNegatives)
	}
	return det
}
