package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/ecosystem"
	"mcs/internal/gaming"
	"mcs/internal/graphproc"
	"mcs/internal/opendc"
	"mcs/internal/sched"
	"mcs/internal/stats"
	"mcs/internal/workload"
)

// F1BigDataEcosystem reproduces Figure 1: the four-layer big-data ecosystem
// with its MapReduce and Pregel sub-ecosystems. It (a) navigates the encoded
// catalog to recover the figure's two highlighted minimum assemblies and (b)
// executes a MapReduce-style dataflow job and a Pregel-style (BSP PageRank)
// job on the corresponding substrates, reporting makespans and composed NFRs.
func F1BigDataEcosystem(opts Options) (*Report, error) {
	arch := ecosystem.BigDataArchitecture()
	cat := ecosystem.BigDataCatalog()

	rep := &Report{
		ID:    "F1",
		Title: "the big-data ecosystem (Figure 1)",
		Headline: "applications use components across the full stack of layers; " +
			"the MapReduce and Pregel sub-ecosystems cover the minimum set of layers for execution",
		Columns: []string{"sub-ecosystem", "assembly (top→bottom)", "latency_ms", "availability", "cost/h", "job", "makespan"},
	}

	// (a) Navigation recovers the two highlighted sub-ecosystems.
	mr, err := ecosystem.Navigate(arch, cat, ecosystem.Requirements{
		Capabilities: []ecosystem.Capability{ecosystem.CapSQLLike, ecosystem.CapMapReduce},
		Weights:      map[ecosystem.Metric]float64{ecosystem.MetricLatencyMS: 1},
	}, 1)
	if err != nil {
		return nil, fmt.Errorf("F1 mapreduce navigation: %w", err)
	}
	pregel, err := ecosystem.Navigate(arch, cat, ecosystem.Requirements{
		Capabilities: []ecosystem.Capability{ecosystem.CapBSPGraph},
		Weights:      map[ecosystem.Metric]float64{ecosystem.MetricLatencyMS: 1},
	}, 1)
	if err != nil {
		return nil, fmt.Errorf("F1 pregel navigation: %w", err)
	}

	// (b) Execute representative jobs on the two sub-ecosystems' substrates.
	// MapReduce-style: a fork-join dataflow on the simulated cluster.
	r := rand.New(rand.NewSource(opts.seed(41)))
	nTasks := opts.scale(16, 64)
	mrJob := workload.Job{ID: 1, User: "analyst"}
	var ids []workload.TaskID
	for i := 0; i < nTasks; i++ {
		id := workload.TaskID(i + 1)
		ids = append(ids, id)
		mrJob.Tasks = append(mrJob.Tasks, workload.Task{
			ID: id, Job: 1, Cores: 1, MemoryMB: 1024,
			Runtime: time.Duration(30+r.Intn(90)) * time.Second,
		})
	}
	// Reduce task depends on all maps.
	reduce := workload.TaskID(nTasks + 1)
	mrJob.Tasks = append(mrJob.Tasks, workload.Task{
		ID: reduce, Job: 1, Cores: 4, MemoryMB: 4096,
		Runtime: 60 * time.Second, Deps: ids,
	})
	mrRes, err := opendc.Run(&opendc.Scenario{
		Cluster:  dcmodel.NewHomogeneous("bigdata", opts.scale(4, 16), dcmodel.ClassCommodity, 8),
		Workload: &workload.Workload{Jobs: []workload.Job{mrJob}},
		Seed:     opts.seed(41),
	})
	if err != nil {
		return nil, fmt.Errorf("F1 mapreduce job: %w", err)
	}

	// Pregel-style: BSP PageRank on an R-MAT graph.
	g, err := graphproc.Generate(graphproc.RMAT, opts.scale(10, 14), 8, false, r)
	if err != nil {
		return nil, fmt.Errorf("F1 graph: %w", err)
	}
	prRes, err := graphproc.RunAlgorithm(g, graphproc.AlgPageRank, graphproc.ParallelBSP)
	if err != nil {
		return nil, fmt.Errorf("F1 pagerank: %w", err)
	}

	add := func(name string, cand ecosystem.Candidate, job string, makespan time.Duration) {
		rep.Rows = append(rep.Rows, []string{
			name,
			joinNames(cand.Assembly.Names()),
			f("%.0f", cand.NFR[ecosystem.MetricLatencyMS]),
			f("%.4f", cand.NFR[ecosystem.MetricAvailability]),
			f("%.1f", cand.NFR[ecosystem.MetricCostPerHour]),
			job,
			makespan.Round(time.Millisecond).String(),
		})
	}
	add("mapreduce", mr[0], f("fork-join %d maps + reduce", nTasks), mrRes.Makespan)
	add("pregel", pregel[0], f("pagerank V=%d E=%d", g.NumVertices(), g.NumEdges()), prRes.Makespan)
	rep.Notes = append(rep.Notes,
		f("catalog encodes %d components over 4 layers; HLL layer optional per the figure", cat.Len()),
		"assemblies found by the C9 navigator with hard capability constraints")
	return rep, nil
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += "→"
		}
		out += n
	}
	return out
}

// F2EvolutionComposition reproduces Figure 2: the technology lineage leading
// to MCS. It validates the lineage structure (eras, acyclicity, MCS as sole
// sink) and quantifies the "accumulation of technological artifacts":
// navigation cost and assembly count as catalog generations accumulate.
func F2EvolutionComposition(opts Options) (*Report, error) {
	nodes, edges := ecosystem.EvolutionGraph()
	rep := &Report{
		ID:    "F2",
		Title: "main technologies leading to MCS (Figure 2)",
		Headline: "MCS responds to the ecosystems crisis by synthesizing the " +
			"distributed-systems line with software and performance engineering; " +
			"composition choices grow combinatorially as generations accumulate",
		Columns: []string{"technology", "era", "feeds-into", "fed-by"},
	}
	out := make(map[string]int)
	in := make(map[string]int)
	for _, e := range edges {
		out[e.From]++
		in[e.To]++
	}
	for _, n := range nodes {
		rep.Rows = append(rep.Rows, []string{n.Name, f("%d", n.Era), f("%d", out[n.Name]), f("%d", in[n.Name])})
	}

	// Combinatorial growth: navigate progressively larger slices of the
	// Figure-1 catalog (a proxy for accumulated generations).
	cat := ecosystem.BigDataCatalog()
	arch := ecosystem.BigDataArchitecture()
	all := make([]*ecosystem.Component, 0, cat.Len())
	for _, layer := range arch.Layers {
		all = append(all, cat.Layer(layer)...)
	}
	for _, fraction := range []float64{0.4, 0.7, 1.0} {
		n := int(fraction * float64(len(all)))
		sub := ecosystem.NewCatalog(all[:n])
		start := time.Now()
		cands, err := ecosystem.Navigate(arch, sub, ecosystem.Requirements{}, 0)
		count := 0
		if err == nil {
			count = len(cands)
		}
		rep.Rows = append(rep.Rows, []string{
			f("[catalog %d%%]", int(fraction*100)), "-",
			f("%d valid assemblies", count),
			f("navigate %s", time.Since(start).Round(time.Microsecond)),
		})
	}
	rep.Notes = append(rep.Notes, "lineage validated: acyclic, era-monotone, MCS is the unique sink")
	return rep, nil
}

// F3DatacenterRefArch reproduces Figure 3: the 5+1-layer datacenter
// reference architecture. It maps a full simulated datacenter run onto the
// layers and contrasts two back-end scheduling configurations (strict FCFS
// versus EASY backfilling with SJF) on the same workload.
func F3DatacenterRefArch(opts Options) (*Report, error) {
	rep := &Report{
		ID:    "F3",
		Title: "reference architecture for datacenters (Figure 3)",
		Headline: "a guiding reference architecture captures the diversity of datacenter " +
			"stacks; scheduling at the back-end layer (EASY backfilling) dominates strict FCFS",
		Columns: []string{"layer", "role / policy", "metric", "value"},
	}
	for _, l := range ecosystem.DatacenterArchitecture() {
		model := map[int]string{
			5: "workload generator (internal/workload)",
			4: "scheduler policies (internal/sched)",
			3: "cluster resource pool (internal/opendc)",
			2: "event kernel services (internal/sim)",
			1: "machines/racks/power (internal/dcmodel)",
			0: "monitor ticks + failure injection (internal/{opendc,failure})",
		}[l.Number]
		rep.Rows = append(rep.Rows, []string{f("L%d %s", l.Number, l.Name), l.Role, "maps-to", model})
	}

	r := rand.New(rand.NewSource(opts.seed(43)))
	w, err := workload.Generate(workload.GeneratorConfig{
		Jobs:           opts.scale(80, 600),
		Arrival:        &workload.MMPP2{CalmRatePerHour: 40, BurstRatePerHour: 600, MeanCalm: time.Hour, MeanBurst: 15 * time.Minute},
		TasksPerJob:    stats.Truncate{D: stats.LogNormal{Mu: 1.5, Sigma: 1.0}, Lo: 1, Hi: 48},
		CoresPerTask:   stats.Truncate{D: stats.LogNormal{Mu: 0.7, Sigma: 0.9}, Lo: 1, Hi: 16},
		RuntimeSeconds: stats.Truncate{D: stats.LogNormal{Mu: 5.3, Sigma: 1.0}, Lo: 30, Hi: 7200},
	}, r)
	if err != nil {
		return nil, fmt.Errorf("F3 workload: %w", err)
	}
	cluster := dcmodel.NewHomogeneous("dc", opts.scale(8, 12), dcmodel.ClassCommodity, 16)
	for _, cfg := range []struct {
		name  string
		c     sched.Config
		power *opendc.PowerPolicy
	}{
		{"strict fcfs", sched.Config{Queue: sched.FCFS{}, Mode: sched.Strict}, nil},
		{"easy+sjf", sched.Config{Queue: sched.SJF{}, Mode: sched.EASY}, nil},
		{"easy+sjf+power-mgmt", sched.Config{Queue: sched.SJF{}, Mode: sched.EASY},
			&opendc.PowerPolicy{IdleTimeout: 5 * time.Minute, WakeDelay: 30 * time.Second}},
	} {
		res, err := opendc.Run(&opendc.Scenario{
			Cluster: cluster, Workload: w, Sched: cfg.c, Power: cfg.power, Seed: opts.seed(43),
		})
		if err != nil {
			return nil, fmt.Errorf("F3 run %s: %w", cfg.name, err)
		}
		rep.Rows = append(rep.Rows,
			[]string{"L4 back-end", cfg.name, "mean wait", res.MeanWait.Round(time.Millisecond).String()},
			[]string{"L4 back-end", cfg.name, "p95 wait", res.P95Wait.Round(time.Millisecond).String()},
			[]string{"L4 back-end", cfg.name, "mean slowdown", f("%.2f", res.MeanSlowdown)},
			[]string{"L4 back-end", cfg.name, "utilization", f("%.3f", res.Utilization)},
			[]string{"L4 back-end", cfg.name, "energy kWh", f("%.1f", res.EnergyKWh)},
		)
	}
	return rep, nil
}

// F4GamingEcosystem reproduces Figure 4: the four-function online-gaming
// architecture. It runs the Virtual World under diurnal load, evaluates the
// consistency-model trade-off the figure lists, and exercises the Gaming
// Analytics function (implicit social graph + toxicity detection).
func F4GamingEcosystem(opts Options) (*Report, error) {
	rep := &Report{
		ID:    "F4",
		Title: "functional reference architecture for online gaming (Figure 4)",
		Headline: "virtual worlds are not seamless: fast-paced consistency sustains only " +
			"tens of players per contiguous space, while AoI stretches to thousands; " +
			"analytics over implicit social ties detects toxicity",
		Columns: []string{"function", "aspect", "metric", "value"},
	}
	cfg := gaming.WorldConfig{
		Zones:          opts.scale(4, 16),
		ZoneCapacity:   100,
		ArrivalPerHour: float64(opts.scale(800, 4000)),
		DiurnalAmp:     0.8,
		Horizon:        time.Duration(opts.scale(8, 48)) * time.Hour,
		Seed:           opts.seed(44),
	}
	world, err := gaming.RunWorld(cfg)
	if err != nil {
		return nil, fmt.Errorf("F4 world: %w", err)
	}
	rep.Rows = append(rep.Rows,
		[]string{"virtual world", "sessions", "players served", f("%d", world.PlayersServed)},
		[]string{"virtual world", "sessions", "peak concurrent", f("%d", world.PeakConcurrent)},
		[]string{"virtual world", "sharding", "peak servers", f("%d", world.PeakServers)},
		[]string{"virtual world", "sharding", "mean servers", f("%.1f", world.MeanServers)},
		[]string{"virtual world", "QoS", "overload time share", f("%.4f", world.OverloadTimeShare)},
	)
	p := gaming.DefaultConsistencyParams()
	for _, m := range []gaming.ConsistencyModel{gaming.Lockstep, gaming.DeadReckoning, gaming.AreaOfInterest} {
		limit := gaming.MaxPlayersWithinBudget(m, p, 512, 250)
		c, err := gaming.EvaluateConsistency(m, 100, p)
		if err != nil {
			return nil, fmt.Errorf("F4 consistency: %w", err)
		}
		rep.Rows = append(rep.Rows,
			[]string{"virtual world", "consistency: " + m.String(), "max players (512KB/s,250ms)", f("%d", limit)},
			[]string{"virtual world", "consistency: " + m.String(), "bandwidth @100 players KB/s", f("%.1f", c.BandwidthKBps)},
		)
	}
	r := rand.New(rand.NewSource(opts.seed(44)))
	truth, reports := gaming.ToxicityGroundTruth(world.Ties, 0.05, r)
	det := gaming.DetectToxicity(world.Ties, reports, truth, 0.2)
	rep.Rows = append(rep.Rows,
		[]string{"gaming analytics", "social graph", "implicit ties", f("%d", world.Ties.NumEdges())},
		[]string{"gaming analytics", "toxicity detection", "precision", f("%.2f", det.Precision)},
		[]string{"gaming analytics", "toxicity detection", "recall", f("%.2f", det.Recall)},
	)
	// Procedural content generation + meta-gaming appear as workload terms:
	// PCG is compute-intensive batch work, meta-gaming grows the tie graph.
	rep.Rows = append(rep.Rows,
		[]string{"procedural content", "batch jobs", "modeled as", "compute-intensive bags-of-tasks (internal/workload)"},
		[]string{"social meta-gaming", "community", "modeled as", "interaction graph + communities (internal/social)"},
	)
	return rep, nil
}

// F5FaaSRefArch prints Figure 5, the four-layer FaaS reference
// architecture, with the part of the faas scenario kind that models each
// layer. The figure's cold-start trade-off runs as a document:
// examples/paper/f5-keepwarm.json sweeps the keep-warm pool, and its result
// is pinned in the golden corpus.
func F5FaaSRefArch(Options) (*Report, error) {
	rep := &Report{
		ID:    "F5",
		Title: "FaaS reference architecture (Figure 5)",
		Headline: "function management must trade isolation and cost against cold-start " +
			"latency: keep-warm pools buy tail latency with instance-seconds",
		Columns: []string{"layer", "name", "role", "fig. 3 layer", "run by"},
	}
	runBy := map[int]string{
		4: `faas kind: "functions" block`,
		3: `faas kind: "keepWarm", "idleTimeoutSeconds", "maxInstances"`,
		2: "faas kind: instance pool (instanceSeconds, peakInstances)",
		1: `faas kind: "failures" overlay`,
	}
	for _, l := range ecosystem.FaaSArchitecture() {
		rep.Rows = append(rep.Rows, []string{f("L%d", l.Number), l.Name, l.Role, f("L%d", l.Fig3Layer), runBy[l.Number]})
	}
	rep.Notes = append(rep.Notes, "run: mcsim -scenario examples/paper/f5-keepwarm.json (keep-warm 0, 1, 2, 4)")
	return rep, nil
}
