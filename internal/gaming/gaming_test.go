package gaming

import (
	"math/rand"
	"testing"
	"time"

	"mcs/internal/failure"
	"mcs/internal/stats"
)

func smallWorld() WorldConfig {
	return WorldConfig{
		Zones:            4,
		ZoneCapacity:     50,
		ArrivalPerHour:   600,
		DiurnalAmp:       0.8,
		SessionMinutes:   stats.Truncate{D: stats.Exponential{Rate: 1.0 / 30}, Lo: 5, Hi: 240},
		MoveEveryMinutes: 5,
		Horizon:          12 * time.Hour,
		Seed:             1,
	}
}

func TestRunWorldBasics(t *testing.T) {
	res, err := RunWorld(smallWorld())
	if err != nil {
		t.Fatal(err)
	}
	if res.PlayersServed < 100 {
		t.Errorf("players served=%d, want many", res.PlayersServed)
	}
	if res.PeakConcurrent <= 0 || res.PeakConcurrent > res.PlayersServed {
		t.Errorf("peak concurrent=%d", res.PeakConcurrent)
	}
	if res.PeakServers < 4 { // at least one server per zone
		t.Errorf("peak servers=%d", res.PeakServers)
	}
	if res.MeanServers < 4 {
		t.Errorf("mean servers=%v", res.MeanServers)
	}
	if res.OverloadTimeShare < 0 || res.OverloadTimeShare > 1 {
		t.Errorf("overload share=%v", res.OverloadTimeShare)
	}
	if res.Ties.NumEdges() == 0 {
		t.Error("no implicit social ties recorded")
	}
	if res.ConcurrentSeries.Len() == 0 || res.ServerSeries.Len() == 0 {
		t.Error("monitoring series empty")
	}
}

func TestRunWorldValidation(t *testing.T) {
	bad := smallWorld()
	bad.Zones = 0
	if _, err := RunWorld(bad); err == nil {
		t.Error("zero zones accepted")
	}
	bad = smallWorld()
	bad.Horizon = 0
	if _, err := RunWorld(bad); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestRunWorldDeterministic(t *testing.T) {
	a, err := RunWorld(smallWorld())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorld(smallWorld())
	if err != nil {
		t.Fatal(err)
	}
	if a.PlayersServed != b.PlayersServed || a.PeakConcurrent != b.PeakConcurrent ||
		a.PeakServers != b.PeakServers {
		t.Error("same-seed worlds diverge")
	}
}

func TestElasticScalingFollowsDiurnalLoad(t *testing.T) {
	cfg := smallWorld()
	cfg.Horizon = 24 * time.Hour
	cfg.ArrivalPerHour = 2000
	res, err := RunWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Server count must vary with load (elasticity), not stay flat.
	vals := res.ServerSeries.Values()
	s := stats.Summarize(vals)
	if s.Max <= s.Min {
		t.Errorf("server count never scaled: %+v", s)
	}
}

func TestSmallStudioScenarioServerCostScalesSubLinearly(t *testing.T) {
	// The §6.3 economics: doubling the player base should not double peak
	// servers when zones are under-utilized (consolidation headroom).
	small := smallWorld()
	small.ArrivalPerHour = 200
	big := smallWorld()
	big.ArrivalPerHour = 400
	rs, err := RunWorld(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunWorld(big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.PlayersServed <= rs.PlayersServed {
		t.Fatalf("load did not increase: %d vs %d", rb.PlayersServed, rs.PlayersServed)
	}
	ratio := rb.MeanServers / rs.MeanServers
	if ratio > 2.0 {
		t.Errorf("server cost ratio %v super-linear in load", ratio)
	}
}

func TestEvaluateConsistencyModels(t *testing.T) {
	p := DefaultConsistencyParams()
	for _, m := range []ConsistencyModel{DeadReckoning, Lockstep, AreaOfInterest} {
		c, err := EvaluateConsistency(m, 100, p)
		if err != nil {
			t.Fatal(err)
		}
		if c.BandwidthKBps <= 0 || c.ResponsivenessMS <= 0 {
			t.Errorf("%v: degenerate cost %+v", m, c)
		}
		if m.String() == "" {
			t.Error("empty model name")
		}
	}
	if _, err := EvaluateConsistency(DeadReckoning, 0, p); err == nil {
		t.Error("zero players accepted")
	}
	if _, err := EvaluateConsistency(ConsistencyModel(99), 10, p); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestConsistencyTradeoffShape(t *testing.T) {
	p := DefaultConsistencyParams()
	dr, _ := EvaluateConsistency(DeadReckoning, 200, p)
	ls, _ := EvaluateConsistency(Lockstep, 200, p)
	aoi, _ := EvaluateConsistency(AreaOfInterest, 200, p)
	// Lockstep is perfectly consistent but least responsive.
	if ls.StalenessError != 0 {
		t.Errorf("lockstep staleness=%v", ls.StalenessError)
	}
	if ls.ResponsivenessMS <= dr.ResponsivenessMS {
		t.Errorf("lockstep responsiveness %v not worse than dead reckoning %v",
			ls.ResponsivenessMS, dr.ResponsivenessMS)
	}
	// AoI uses least bandwidth; lockstep the most.
	if !(aoi.BandwidthKBps < dr.BandwidthKBps && dr.BandwidthKBps < ls.BandwidthKBps) {
		t.Errorf("bandwidth ordering wrong: aoi=%v dr=%v ls=%v",
			aoi.BandwidthKBps, dr.BandwidthKBps, ls.BandwidthKBps)
	}
}

// The §6.3 claim: fast-paced games sustain only tens of players per zone
// under strict budgets, while AoI stretches to thousands.
func TestMaxPlayersReproducesSeamlessnessLimit(t *testing.T) {
	p := DefaultConsistencyParams()
	const maxKBps, maxResp = 512, 250
	ls := MaxPlayersWithinBudget(Lockstep, p, maxKBps, maxResp)
	dr := MaxPlayersWithinBudget(DeadReckoning, p, maxKBps, maxResp)
	aoi := MaxPlayersWithinBudget(AreaOfInterest, p, maxKBps, maxResp)
	if ls < 2 || ls > 100 {
		t.Errorf("lockstep sustains %d players; expected tens", ls)
	}
	if dr <= ls {
		t.Errorf("dead reckoning (%d) not above lockstep (%d)", dr, ls)
	}
	if aoi <= dr {
		t.Errorf("AoI (%d) not above dead reckoning (%d)", aoi, dr)
	}
	if aoi < 1000 {
		t.Errorf("AoI sustains %d, expected thousands", aoi)
	}
}

func TestToxicityDetection(t *testing.T) {
	cfg := smallWorld()
	cfg.Horizon = 6 * time.Hour
	res, err := RunWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	truth, reports := ToxicityGroundTruth(res.Ties, 0.05, r)
	det := DetectToxicity(res.Ties, reports, truth, 0.15)
	if det.Precision == 0 && det.Recall == 0 {
		t.Fatal("seed 7 produced no detectable toxic players")
	}
	// A signal-based detector must beat random guessing on precision.
	base := 0.05
	if det.Precision < base {
		t.Errorf("precision %v below toxic base rate %v", det.Precision, base)
	}
	if det.Recall < 0.4 {
		t.Errorf("recall=%v, want ≥0.4 with a 6x signal", det.Recall)
	}
	// Noise must make the detector imperfect — a perfect detector means the
	// populations do not overlap and the experiment is trivial.
	if det.Precision == 1 && det.Recall == 1 {
		t.Error("detection trivially perfect; ground-truth noise missing")
	}
}

func BenchmarkRunWorldDay(b *testing.B) {
	cfg := smallWorld()
	cfg.Horizon = 24 * time.Hour
	for i := 0; i < b.N; i++ {
		if _, err := RunWorld(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestZoneFailuresShrinkServersAndRaiseOverload(t *testing.T) {
	// A failure covering both of zone 0's server slots for the whole horizon:
	// players keep playing (downtime surfaces as load pressure, not kicks),
	// the server fleet shrinks, and overload time can only grow.
	base := smallWorld()
	base.MaxServersPerZone = 2
	baseline, err := RunWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	failed := base
	failed.Failures = []failure.Event{
		{At: 0, Machines: []int{0, 1}, Repair: base.Horizon},
	}
	degraded, err := RunWorld(failed)
	if err != nil {
		t.Fatal(err)
	}
	// The timeline is pre-drawn, never from the kernel RNG: arrivals, zone
	// choices, and movement are untouched, so the population is identical.
	if degraded.PlayersServed != baseline.PlayersServed {
		t.Errorf("players served %d != baseline %d (failures must not perturb the workload)",
			degraded.PlayersServed, baseline.PlayersServed)
	}
	if degraded.MeanServers >= baseline.MeanServers {
		t.Errorf("mean servers %v not below baseline %v with zone 0 down",
			degraded.MeanServers, baseline.MeanServers)
	}
	if degraded.OverloadTimeShare < baseline.OverloadTimeShare {
		t.Errorf("overload share %v below baseline %v with zone 0 down",
			degraded.OverloadTimeShare, baseline.OverloadTimeShare)
	}
	// Determinism: same config, same failure timeline, same result.
	again, err := RunWorld(failed)
	if err != nil {
		t.Fatal(err)
	}
	if again.MeanServers != degraded.MeanServers || again.OverloadTimeShare != degraded.OverloadTimeShare {
		t.Error("failure-injected world run is not deterministic")
	}
}

func TestZoneFailureRepairRestoresHeadroom(t *testing.T) {
	// A failure that repairs mid-run must leave the post-repair world with
	// its full shard headroom: the mean server count sits between the
	// always-down and never-down cases.
	base := smallWorld()
	base.MaxServersPerZone = 2
	baseline, err := RunWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	half := base
	half.Failures = []failure.Event{
		{At: 0, Machines: []int{0, 1}, Repair: base.Horizon / 2},
	}
	repaired, err := RunWorld(half)
	if err != nil {
		t.Fatal(err)
	}
	always := base
	always.Failures = []failure.Event{
		{At: 0, Machines: []int{0, 1}, Repair: base.Horizon},
	}
	down, err := RunWorld(always)
	if err != nil {
		t.Fatal(err)
	}
	if !(repaired.MeanServers > down.MeanServers && repaired.MeanServers < baseline.MeanServers) {
		t.Errorf("mean servers: down=%v repaired=%v baseline=%v, want strictly between",
			down.MeanServers, repaired.MeanServers, baseline.MeanServers)
	}
}
