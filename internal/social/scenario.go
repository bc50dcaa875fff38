package social

// This file adapts the implicit-social-network analyses to the scenario
// registry (internal/scenario), registered under "social": a JSON schema for
// the workload population and analysis windows, and a thin scenario.Scenario
// implementation that replays job submissions as kernel events, building the
// interaction graph online, then runs the C5 analyses (communities, dominant
// users, job groupings) over it.

import (
	"encoding/json"
	"fmt"
	"time"

	"mcs/internal/scenario"
	"mcs/internal/sim"
	"mcs/internal/workload"
)

// ScenarioJSON is the JSON schema of the "social" scenario. The header
// fields (kind, seed) come from the embedded scenario.Common.
type ScenarioJSON struct {
	scenario.Common
	// Jobs is the size of the generated workload (default 400).
	Jobs int `json:"jobs"`
	// Users is the user population; submissions follow a Zipf popularity
	// (default 32).
	Users int `json:"users"`
	// UserSkew is the Zipf exponent of the user popularity (default 1.6).
	UserSkew float64 `json:"userSkew"`
	// Pattern is the arrival pattern: poisson, bursty, diurnal.
	Pattern string `json:"pattern"`
	// WindowSeconds is the co-occurrence window that turns overlapping
	// submissions into implicit ties (default 300).
	WindowSeconds float64 `json:"windowSeconds"`
	// CommunityIterations bounds label propagation (default 16).
	CommunityIterations int `json:"communityIterations"`
	// DominantShare is the job share the dominant-user set must cover
	// (default 0.8).
	DominantShare float64 `json:"dominantShare"`
	// GroupGapSeconds splits a user's submissions into batches (default 600).
	GroupGapSeconds float64 `json:"groupGapSeconds"`
}

// ExampleJSON is a ready-to-run social scenario document.
const ExampleJSON = `{
  "kind": "social",
  "jobs": 400, "users": 32, "userSkew": 1.6,
  "pattern": "bursty", "windowSeconds": 300,
  "dominantShare": 0.8, "groupGapSeconds": 600, "seed": 7
}`

type socialScenario struct {
	cfg     ScenarioJSON
	arrival workload.ArrivalProcess
	window  time.Duration
	gap     time.Duration
}

func init() {
	scenario.Register[ScenarioJSON]("social", ExampleJSON, func() scenario.Scenario { return &socialScenario{} })
}

// Name implements scenario.Scenario.
func (s *socialScenario) Name() string { return "social" }

// Configure implements scenario.Scenario.
func (s *socialScenario) Configure(raw json.RawMessage) error {
	var cfg ScenarioJSON
	if err := scenario.Decode(raw, &cfg); err != nil {
		return err
	}
	if err := cfg.RejectFailures("social"); err != nil {
		return err
	}
	if err := cfg.RejectParallel("social"); err != nil {
		return err
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 400
	}
	if cfg.Users <= 0 {
		cfg.Users = 32
	}
	if cfg.WindowSeconds <= 0 {
		cfg.WindowSeconds = 300
	}
	if cfg.CommunityIterations <= 0 {
		cfg.CommunityIterations = 16
	}
	if cfg.DominantShare <= 0 || cfg.DominantShare > 1 {
		if cfg.DominantShare != 0 {
			return fmt.Errorf("social scenario: dominantShare %v out of (0,1]", cfg.DominantShare)
		}
		cfg.DominantShare = 0.8
	}
	if cfg.GroupGapSeconds <= 0 {
		cfg.GroupGapSeconds = 600
	}
	arrival, err := workload.ArrivalByName(cfg.Pattern)
	if err != nil {
		return err
	}
	if cfg.Pattern == "" {
		cfg.Pattern = "poisson" // ArrivalByName's documented default
	}
	s.cfg = cfg
	s.arrival = arrival
	s.window = time.Duration(cfg.WindowSeconds * float64(time.Second))
	s.gap = time.Duration(cfg.GroupGapSeconds * float64(time.Second))
	return nil
}

// Run implements scenario.Scenario: generate the workload from the kernel's
// deterministic RNG, replay every submission as a kernel event feeding the
// implicit interaction graph, then run the social analyses over the result.
func (s *socialScenario) Run(k *sim.Kernel) (*scenario.Result, error) {
	gen := workload.DefaultGeneratorConfig()
	gen.Jobs = s.cfg.Jobs
	gen.Users = s.cfg.Users
	if s.cfg.UserSkew > 0 {
		gen.UserSkew = s.cfg.UserSkew
	}
	gen.Arrival = s.arrival
	w, err := workload.Generate(gen, k.Rand())
	if err != nil {
		return nil, err
	}

	g, names, err := s.buildPairGraphOn(k, w)
	if err != nil {
		return nil, err
	}

	// Rank-based label propagation over the columnar graph: the same
	// communities as propagation over user names (pinned against the
	// string-keyed reference by TestPairGraphCommunitiesMatchStringPropagation).
	rank := g.RankByName(func(id int32) string { return names[id] })
	labels := g.Communities(s.cfg.CommunityIterations, rank)
	communitySize := make([]int, len(names))
	communities, largest := 0, 0
	for id := range names {
		if !g.Present(int32(id)) {
			continue
		}
		l := labels[id]
		if communitySize[l] == 0 {
			communities++
		}
		communitySize[l]++
		if communitySize[l] > largest {
			largest = communitySize[l]
		}
	}
	dominant := DominantUsers(w, s.cfg.DominantShare)
	groups := JobGroupings(w, s.gap)
	meanBatch := 0.0
	for _, gr := range groups {
		meanBatch += float64(len(gr.Jobs))
	}
	if len(groups) > 0 {
		meanBatch /= float64(len(groups))
	}
	actors := g.NumActors()
	largestShare := 0.0
	if actors > 0 {
		largestShare = float64(largest) / float64(actors)
	}
	return &scenario.Result{
		Metrics: map[string]float64{
			"jobs":                  float64(len(w.Jobs)),
			"actors":                float64(actors),
			"ties":                  float64(g.NumEdges()),
			"communities":           float64(communities),
			"largestCommunityShare": largestShare,
			"dominantUsers":         float64(len(dominant)),
			"groupings":             float64(len(groups)),
			"meanBatchSize":         meanBatch,
		},
		Labels: map[string]string{"pattern": s.cfg.Pattern},
	}, nil
}

// buildPairGraphOn replays every submission as a kernel event, tying each
// job's user to the users seen within the co-occurrence window — the
// implicit-tie construction of refs [105], [108], with weight 1 per
// co-occurrence of two distinct users (pinned against a batch reference by
// TestOnlineGraphMatchesFromWorkload).
//
// The hot path is columnar: users are interned to dense int32 ids up front,
// the co-occurrence window is a chronological ring over two flat columns
// (expired entries are always a prefix, because events fire in time order),
// and all submissions are admitted as one kernel stream whose single handler
// walks the uid column by cursor — so a steady-state event touches no maps,
// no strings, and allocates nothing. The uids live in one flat column (4
// bytes a submission), the stream reads the submit times from the workload
// in place, and the kernel holds no event per submission. Returns the graph
// and the id→name table.
func (s *socialScenario) buildPairGraphOn(k *sim.Kernel, w *workload.Workload) (*PairGraph, []string, error) {
	g := NewPairGraph(0, 0)
	uid := make(map[string]int32, 64)
	names := make([]string, 0, 64)
	uids := make([]int32, len(w.Jobs))
	for i := range w.Jobs {
		u := w.Jobs[i].User
		id, ok := uid[u]
		if !ok {
			id = int32(len(names))
			uid[u] = id
			names = append(names, u)
		}
		uids[i] = id
	}

	var (
		recentUID []int32
		recentAt  []sim.Time
		head      int
		cursor    int
	)
	// A valid workload is ordered by submit time (Workload.Validate), so the
	// submit column is already the sorted stream, same-instant jobs in job
	// order; ScheduleStream rejects it loudly if not.
	jobs := w.Jobs
	err := k.ScheduleStream(len(jobs), func(i int) sim.Time { return jobs[i].Submit }, func(now sim.Time) {
		u := uids[cursor]
		cursor++
		g.AddActor(u)
		for head < len(recentUID) && now-recentAt[head] > sim.Time(s.window) {
			head++
		}
		for i := head; i < len(recentUID); i++ {
			if recentUID[i] != u {
				g.AddEdge(recentUID[i], u, 1)
			}
		}
		// Compact once the expired prefix dominates: amortized O(1), and the
		// backing arrays stop growing once the window population peaks.
		if head > 64 && head*2 >= len(recentUID) {
			n := copy(recentUID, recentUID[head:])
			copy(recentAt, recentAt[head:])
			recentUID, recentAt = recentUID[:n], recentAt[:n]
			head = 0
		}
		recentUID = append(recentUID, u)
		recentAt = append(recentAt, now)
	})
	if err != nil {
		return nil, nil, err
	}
	k.Run()
	return g, names, nil
}
