// Package social implements the implicit-social-network analyses of paper
// C5 ("socially aware systems"): extracting interaction graphs from
// workload and activity traces, measuring tie strength, identifying dominant
// users ([107]) and job groupings ([108]), and detecting communities — the
// signals that "new workload patterns do emerge from implicit social
// interaction and can be leveraged."
package social

import (
	"sort"
	"time"

	"mcs/internal/workload"
)

// DominantUsers returns the smallest set of users accounting for at least
// share (0..1] of the jobs, most active first — the dominant-user analysis
// of [107] ("How are Real Grids Used?").
func DominantUsers(w *workload.Workload, share float64) []string {
	counts := make(map[string]int)
	for i := range w.Jobs {
		counts[w.Jobs[i].User]++
	}
	type uc struct {
		user string
		n    int
	}
	ucs := make([]uc, 0, len(counts))
	for u, n := range counts {
		ucs = append(ucs, uc{u, n})
	}
	sort.Slice(ucs, func(i, j int) bool {
		if ucs[i].n != ucs[j].n {
			return ucs[i].n > ucs[j].n
		}
		return ucs[i].user < ucs[j].user
	})
	target := share * float64(len(w.Jobs))
	var out []string
	cum := 0
	for _, u := range ucs {
		if float64(cum) >= target {
			break
		}
		out = append(out, u.user)
		cum += u.n
	}
	return out
}

// Grouping is a batch of jobs submitted by one user in quick succession —
// the "groups of jobs" of [108] whose presence predicts near-future load.
type Grouping struct {
	User  string
	Jobs  []workload.JobID
	Start time.Duration
	End   time.Duration
}

// JobGroupings splits each user's submissions into batches separated by
// gaps larger than gap.
func JobGroupings(w *workload.Workload, gap time.Duration) []Grouping {
	type entry struct {
		id workload.JobID
		at time.Duration
	}
	byUser := make(map[string][]entry)
	var users []string
	for i := range w.Jobs {
		u := w.Jobs[i].User
		if _, ok := byUser[u]; !ok {
			users = append(users, u)
		}
		byUser[u] = append(byUser[u], entry{w.Jobs[i].ID, w.Jobs[i].Submit})
	}
	sort.Strings(users)
	var out []Grouping
	for _, u := range users {
		entries := byUser[u]
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].at != entries[j].at {
				return entries[i].at < entries[j].at
			}
			return entries[i].id < entries[j].id
		})
		cur := Grouping{User: u}
		for _, e := range entries {
			if len(cur.Jobs) > 0 && e.at-cur.End > gap {
				out = append(out, cur)
				cur = Grouping{User: u}
			}
			if len(cur.Jobs) == 0 {
				cur.Start = e.at
			}
			cur.Jobs = append(cur.Jobs, e.id)
			cur.End = e.at
		}
		if len(cur.Jobs) > 0 {
			out = append(out, cur)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].User < out[j].User
	})
	return out
}

// GroupPredictor predicts near-future submissions from open groupings: once
// a user submits the first jobs of a batch, the predictor expects the batch
// to continue at the user's historical batch size — the load signal the
// paper says social awareness unlocks (D5).
type GroupPredictor struct {
	meanBatch map[string]float64
}

// NewGroupPredictor learns per-user mean batch sizes from history.
func NewGroupPredictor(history []Grouping) *GroupPredictor {
	sum := make(map[string]float64)
	n := make(map[string]float64)
	for _, g := range history {
		sum[g.User] += float64(len(g.Jobs))
		n[g.User]++
	}
	mean := make(map[string]float64, len(sum))
	for u := range sum {
		mean[u] = sum[u] / n[u]
	}
	return &GroupPredictor{meanBatch: mean}
}

// ExpectedRemaining predicts how many more jobs user will submit given
// seenInBatch jobs of the current batch have arrived.
func (p *GroupPredictor) ExpectedRemaining(user string, seenInBatch int) float64 {
	mean, ok := p.meanBatch[user]
	if !ok {
		return 0
	}
	rest := mean - float64(seenInBatch)
	if rest < 0 {
		return 0
	}
	return rest
}
