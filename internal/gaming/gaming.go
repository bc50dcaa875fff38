// Package gaming simulates the online-gaming ecosystem of paper §6.3 and
// Figure 4. It models the Virtual World function — players arriving with
// diurnal patterns, moving between zones, zones sharding onto servers under
// load — together with the consistency-model cost trade-offs the figure
// lists (dead reckoning versus lockstep), the Gaming Analytics function
// (interaction graphs, toxicity detection [35]), and the capacity questions
// ("can small studios entertain one billion people with near-zero up-front
// cost?") measured by experiment F4.
package gaming

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"mcs/internal/failure"
	"mcs/internal/sim"
	"mcs/internal/social"
	"mcs/internal/stats"
	"mcs/internal/workload"
)

// WorldConfig parameterizes a virtual-world simulation.
type WorldConfig struct {
	// Zones is the number of contiguous virtual-space zones.
	Zones int
	// ZoneCapacity is the player count one server sustains per zone; load
	// beyond it shards the zone onto more servers.
	ZoneCapacity int
	// MaxServersPerZone caps sharding of one contiguous zone (the paper's
	// seamlessness limit: a zone cannot shard indefinitely without breaking
	// the contiguous virtual space). Default 4.
	MaxServersPerZone int
	// ArrivalPerHour is the base player arrival rate; arrivals follow a
	// diurnal sinusoid with the given amplitude.
	ArrivalPerHour float64
	DiurnalAmp     float64
	// SessionMinutes draws session lengths in minutes.
	SessionMinutes stats.Dist
	// MoveEveryMinutes is the mean time between zone changes per player.
	MoveEveryMinutes float64
	// Horizon is the simulated duration.
	Horizon time.Duration
	// Workload, when set, is the player-session stream to replay: one job
	// per player (submit = arrival, first task runtime = session length).
	// Nil synthesizes sessions from ArrivalPerHour/DiurnalAmp/
	// SessionMinutes with an RNG seeded by Seed. Zone choices and
	// movement stay simulation dynamics drawn from the kernel RNG, so a
	// replayed workload reproduces a synthetic run exactly.
	Workload *workload.Workload
	// Failures, when non-nil, is a pre-drawn failure timeline over the
	// Zones×MaxServersPerZone server slots (slot s serves zone
	// s/MaxServersPerZone): a down slot shrinks its zone's sharding
	// headroom for the repair duration, so load that sharding would have
	// absorbed counts as overload instead.
	Failures []failure.Event
	Seed     int64
}

// WorldResult aggregates a virtual-world run.
type WorldResult struct {
	PlayersServed  int
	PeakConcurrent int
	// PeakServers is the maximum total shard-servers in use.
	PeakServers int
	// MeanServers is the time-averaged server count (the cost proxy).
	MeanServers float64
	// OverloadTimeShare is the fraction of time at least one zone exceeded
	// its sharded capacity (a QoS violation: the "not seamless" symptom the
	// paper describes).
	OverloadTimeShare float64
	// ConcurrentSeries tracks concurrent players over time.
	ConcurrentSeries *stats.TimeSeries
	ServerSeries     *stats.TimeSeries
	// Ties is the implicit social graph of co-zone presence (actor id =
	// player id), the graph the Gaming Analytics function (toxicity
	// detection) reads.
	Ties *social.PairGraph
}

// RunWorld simulates the virtual world and returns its result. A run cut
// short by the kernel's event budget fails with sim.ErrBudget.
func RunWorld(cfg WorldConfig) (*WorldResult, error) {
	k := sim.New(cfg.Seed)
	res, err := RunWorldOn(k, cfg)
	if err == nil {
		err = k.Err()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunWorldOn simulates the virtual world on a caller-provided kernel — the
// entry point used by the scenario registry, where the runner owns the
// kernel. The kernel's seed governs the world dynamics (zone choices,
// movement); cfg.Seed only seeds session synthesis when cfg.Workload is nil.
// The caller checks the kernel's Err.
func RunWorldOn(k *sim.Kernel, cfg WorldConfig) (*WorldResult, error) {
	if cfg.Zones <= 0 || cfg.ZoneCapacity <= 0 {
		return nil, fmt.Errorf("gaming: zones=%d capacity=%d", cfg.Zones, cfg.ZoneCapacity)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("gaming: horizon %v", cfg.Horizon)
	}
	if cfg.SessionMinutes == nil {
		cfg.SessionMinutes = stats.Truncate{D: stats.LogNormal{Mu: 3.4, Sigma: 0.8}, Lo: 5, Hi: 480}
	}
	if cfg.MoveEveryMinutes <= 0 {
		cfg.MoveEveryMinutes = 10
	}
	sessions := cfg.Workload
	if sessions == nil {
		var err error
		sessions, err = GenerateSessions(cfg, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, err
		}
	}
	res := &WorldResult{
		ConcurrentSeries: stats.NewTimeSeries(),
		ServerSeries:     stats.NewTimeSeries(),
		Ties:             social.NewPairGraph(0, 0),
	}
	zonePop := make([]int, cfg.Zones)
	// Per-zone membership as swap-delete slices (+ a position column): map
	// iteration order here would make the sampled co-presence ties — and so
	// the analytics graph — differ between same-seed runs.
	//
	// Player state is struct-of-arrays indexed by an integer handle: no
	// per-player allocation in steady state (handles recycle through a free
	// list, the columns and the per-handle handler closures with them) and
	// contiguous slices for the hot zone scans. zone[h] < 0 marks a departed
	// player; pid[h] is the global player id the tie graph records.
	var (
		zone    []int32
		pid     []int32
		pos     []int32
		departH []sim.Handler
		moveH   []sim.Handler
		free    []int32
	)
	zoneMembers := make([][]int32, cfg.Zones)
	concurrent := 0
	nextID := 0

	maxShards := cfg.MaxServersPerZone
	if maxShards <= 0 {
		maxShards = 4
	}
	// zoneDown counts failed server slots per zone; all zeros without
	// failure injection, leaving servers() and overload accounting exactly
	// as before.
	zoneDown := make([]int, cfg.Zones)
	zoneAvail := func(z int) int {
		avail := maxShards - zoneDown[z]
		if avail < 0 {
			avail = 0
		}
		return avail
	}
	servers := func() int {
		total := 0
		for z, pop := range zonePop {
			// Each zone shards to ⌈pop/capacity⌉ servers, minimum 1,
			// bounded by the seamlessness limit and surviving slots.
			avail := zoneAvail(z)
			n := (pop + cfg.ZoneCapacity - 1) / cfg.ZoneCapacity
			if n < 1 {
				n = 1
			}
			if n > avail {
				n = avail
			}
			total += n
		}
		return total
	}

	enter := func(h int32, z int) {
		zone[h] = int32(z)
		zonePop[z]++
		// Record implicit co-presence ties with up to 3 current members —
		// the slice tail, which swap-deletes reorder arbitrarily; the point
		// is a deterministic sample (reproducible same-seed runs), not
		// recency.
		members := zoneMembers[z]
		lo := len(members) - 3
		if lo < 0 {
			lo = 0
		}
		for _, other := range members[lo:] {
			res.Ties.AddEdge(pid[h], pid[other], 1)
		}
		pos[h] = int32(len(members))
		zoneMembers[z] = append(members, h)
	}
	leaveZone := func(h int32) {
		z := zone[h]
		zonePop[z]--
		members := zoneMembers[z]
		i := pos[h]
		last := int32(len(members) - 1)
		members[i] = members[last]
		pos[members[i]] = i
		zoneMembers[z] = members[:last]
	}
	// alloc hands out a player handle, reusing a freed one when available.
	// The two handler closures are built once per handle and recycled with
	// it, so a steady-state arrival schedules three events without a single
	// heap allocation.
	alloc := func() int32 {
		if n := len(free); n > 0 {
			h := free[n-1]
			free = free[:n-1]
			return h
		}
		h := int32(len(zone))
		zone = append(zone, 0)
		pid = append(pid, 0)
		pos = append(pos, 0)
		departH = append(departH, func(sim.Time) {
			leaveZone(h)
			zone[h] = -1
			concurrent--
		})
		moveH = append(moveH, func(now sim.Time) {
			if zone[h] < 0 {
				// The one stale move event after departure: nothing else is
				// pending for this handle, so it is safe to recycle. Freeing
				// here (never at departure) is what makes reuse sound — a
				// handle is reissued only after its last event has fired.
				free = append(free, h)
				return
			}
			leaveZone(h)
			enter(h, k.Rand().Intn(cfg.Zones))
			k.AfterFunc(expDuration(k, cfg.MoveEveryMinutes), moveH[h])
		})
		return h
	}

	var overloadTime time.Duration
	var lastSample sim.Time
	sample := func(now sim.Time) {
		res.ConcurrentSeries.Add(now, float64(concurrent))
		s := servers()
		res.ServerSeries.Add(now, float64(s))
		if s > res.PeakServers {
			res.PeakServers = s
		}
		// Overload accounting between samples: a zone past its sharding
		// limit violates QoS.
		anyOver := false
		for z, pop := range zonePop {
			if pop > zoneAvail(z)*cfg.ZoneCapacity {
				anyOver = true
				break
			}
		}
		if anyOver {
			overloadTime += now - lastSample
		}
		lastSample = now
	}
	monitor := sim.NewTicker(k, time.Minute, sample)

	// Inject the pre-drawn failure timeline: slot s belongs to zone
	// s/maxShards, and each event shrinks its zones' headroom until repair.
	for _, ev := range cfg.Failures {
		zonesHit := make([]int, 0, len(ev.Machines))
		for _, s := range ev.Machines {
			if z := s / maxShards; z >= 0 && z < cfg.Zones {
				zonesHit = append(zonesHit, z)
			}
		}
		if len(zonesHit) == 0 {
			continue
		}
		repair := ev.Repair
		if _, err := k.ScheduleAt(sim.Time(ev.At), func(sim.Time) {
			for _, z := range zonesHit {
				zoneDown[z]++
			}
			k.AfterFunc(repair, func(sim.Time) {
				for _, z := range zonesHit {
					zoneDown[z]--
				}
			})
		}); err != nil {
			return nil, err
		}
	}

	// Replay the session workload: every player whose arrival falls inside
	// the horizon joins at their submit time for their recorded session
	// length. Zone entry, movement, and co-presence sampling draw from the
	// kernel RNG in arrival order — the same consumption sequence whether
	// the workload was synthesized or read from a trace.
	//
	// Arrivals are pre-extracted into one column and admitted as a single
	// stream sharing one handler; a cursor walks the column in firing
	// order. The stable sort by submit time reproduces the per-job
	// ScheduleAt loop's firing order exactly: the kernel fires by (time,
	// admission order), and both the per-job loop and the sorted stream
	// admit same-instant arrivals in job order.
	type arrival struct {
		at      sim.Time
		session time.Duration
	}
	arrivals := make([]arrival, 0, len(sessions.Jobs))
	for i := range sessions.Jobs {
		j := &sessions.Jobs[i]
		if j.Submit >= cfg.Horizon || len(j.Tasks) == 0 {
			continue
		}
		arrivals = append(arrivals, arrival{at: sim.Time(j.Submit), session: j.Tasks[0].Runtime})
	}
	slices.SortStableFunc(arrivals, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
	cursor := 0
	arrive := func(now sim.Time) {
		session := arrivals[cursor].session
		cursor++
		nextID++
		h := alloc()
		pid[h] = int32(nextID)
		res.PlayersServed++
		concurrent++
		if concurrent > res.PeakConcurrent {
			res.PeakConcurrent = concurrent
		}
		enter(h, k.Rand().Intn(cfg.Zones))
		k.AfterFunc(session, departH[h])
		k.AfterFunc(expDuration(k, cfg.MoveEveryMinutes), moveH[h])
	}
	if err := k.ScheduleStream(len(arrivals), func(i int) sim.Time { return arrivals[i].at }, arrive); err != nil {
		return nil, err
	}
	k.RunUntil(sim.Time(cfg.Horizon))
	monitor.Stop()

	res.MeanServers = res.ServerSeries.TimeAverage(0, cfg.Horizon)
	if cfg.Horizon > 0 {
		res.OverloadTimeShare = float64(overloadTime) / float64(cfg.Horizon)
	}
	return res, nil
}

func playerName(id int) string { return "p" + itoa(id) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func expDuration(k *sim.Kernel, meanMinutes float64) time.Duration {
	return time.Duration(k.Rand().ExpFloat64() * meanMinutes * float64(time.Minute))
}

// GenerateSessions synthesizes the player-session workload: diurnal
// thinned-Poisson arrivals over the horizon, session lengths drawn from
// SessionMinutes. One job per player, ordered by arrival; the workload
// slots straight into WorldConfig.Workload or a trace writer.
func GenerateSessions(cfg WorldConfig, r *rand.Rand) (*workload.Workload, error) {
	if cfg.ArrivalPerHour <= 0 {
		return nil, fmt.Errorf("gaming: arrival rate %v", cfg.ArrivalPerHour)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("gaming: horizon %v", cfg.Horizon)
	}
	sessionDist := cfg.SessionMinutes
	if sessionDist == nil {
		sessionDist = stats.Truncate{D: stats.LogNormal{Mu: 3.4, Sigma: 0.8}, Lo: 5, Hi: 480}
	}
	arrivals := &diurnalArrivals{base: cfg.ArrivalPerHour, amp: cfg.DiurnalAmp}
	w := &workload.Workload{}
	var clock time.Duration
	for i := 1; ; i++ {
		clock += arrivals.next(r)
		if clock >= cfg.Horizon {
			break
		}
		sessionMin := sessionDist.Sample(r)
		if sessionMin <= 0 {
			sessionMin = 1
		}
		id := workload.JobID(i)
		w.Jobs = append(w.Jobs, workload.Job{
			ID:     id,
			User:   playerName(i),
			Submit: clock,
			Tasks: []workload.Task{{
				ID:      workload.TaskID(i),
				Job:     id,
				Cores:   1,
				Runtime: time.Duration(sessionMin * float64(time.Minute)),
			}},
		})
	}
	return w, nil
}

type diurnalArrivals struct {
	base, amp float64
	now       sim.Time
}

func (d *diurnalArrivals) next(r *rand.Rand) time.Duration {
	peak := d.base * (1 + d.amp)
	if peak <= 0 {
		return time.Hour
	}
	start := d.now
	for {
		gap := time.Duration(r.ExpFloat64() / peak * float64(time.Hour))
		d.now += gap
		hours := d.now.Hours()
		rate := d.base * (1 + d.amp*math.Sin(2*math.Pi*hours/24))
		if r.Float64() <= rate/peak {
			return d.now - start
		}
	}
}
