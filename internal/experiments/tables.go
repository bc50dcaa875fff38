package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mcs/internal/autoscale"
	"mcs/internal/dcmodel"
	"mcs/internal/ecosystem"
	"mcs/internal/elasticity"
	"mcs/internal/federation"
	"mcs/internal/opendc"
	"mcs/internal/sched"
	"mcs/internal/stats"
	"mcs/internal/workload"
)

// T1Overview reproduces Table 1: the overview of MCS, with every "How?"
// methodology row mapped to the module(s) of this repository implementing
// it — the consistency check that the toolkit covers the paper's programme.
func T1Overview(Options) (*Report, error) {
	rep := &Report{
		ID:       "T1",
		Title:    "an overview of MCS (Table 1)",
		Headline: "every methodological row of the overview maps to an implemented module",
		Columns:  []string{"section", "topic", "values", "implemented by"},
	}
	impl := map[string]string{
		"design":                       "internal/ecosystem (reference architectures, navigation)",
		"quantitative":                 "internal/stats (measurement, observation series)",
		"experimentation & simulation": "internal/{sim,scenario}, examples/paper (sweep documents)",
		"empirical":                    "internal/{trace,social} (correlation analyses)",
		"instrumentation":              "internal/obs (progress events, kernel telemetry), cmd/mcsbench",
		"formal models":                "internal/elasticity, internal/gaming consistency cost models",
	}
	for _, row := range ecosystem.Table1Overview() {
		rep.Rows = append(rep.Rows, []string{
			row.Section, row.Topic, strings.Join(row.Values, ", "), impl[row.Topic],
		})
	}
	return rep, nil
}

// T2Principles reproduces Table 2: the ten principles, and quantifies P4
// ("RM&S and self-awareness are key to NFRs at runtime") by comparing static
// peak provisioning against a monitoring feedback loop (React) on the same
// bursty demand.
func T2Principles(opts Options) (*Report, error) {
	rep := &Report{
		ID:       "T2",
		Title:    "the 10 key principles of MCS (Table 2)",
		Headline: "P4 quantified: self-aware provisioning meets demand with far less over-provisioning than static peak capacity",
		Columns:  []string{"id", "type", "key aspects"},
	}
	for _, p := range ecosystem.Table2Principles() {
		rep.Rows = append(rep.Rows, []string{p.ID, string(p.Type), p.KeyAspects})
	}
	demand := burstyDemand(opts.seed(52), opts.scale(6, 48))
	horizon := demand.End() + time.Minute
	peak := int(demand.MaxValue())
	static := stats.NewTimeSeries()
	static.Add(0, float64(peak))
	mStatic := elasticity.Compute(demand, static, horizon, time.Minute)
	supply := autoscale.Simulate(autoscale.React{Headroom: 0.1}, demand, horizon, autoscale.SimOptions{
		Interval: time.Minute, ProvisioningDelay: 2 * time.Minute, MinSupply: 1,
	})
	mReact := elasticity.Compute(demand, supply, horizon, time.Minute)
	rep.Rows = append(rep.Rows,
		[]string{"—", "experiment", "P4: static peak vs self-aware feedback provisioning"},
		[]string{"static", f("accO=%.3f", mStatic.AccuracyO), f("accU=%.3f risk=%.3f", mStatic.AccuracyU, mStatic.Risk(elasticity.DefaultRiskWeights()))},
		[]string{"react", f("accO=%.3f", mReact.AccuracyO), f("accU=%.3f risk=%.3f", mReact.AccuracyU, mReact.Risk(elasticity.DefaultRiskWeights()))},
	)
	rep.Notes = append(rep.Notes, f("demand: MMPP bursty, peak %d units over %s", peak, horizon.Round(time.Hour)))

	// P5 quantified: super-scalability = closed-system strong scaling ×
	// open-system elasticity. Strong-scale a fixed parallel workload across
	// cluster sizes, then fold in the React elasticity risk from above.
	r := rand.New(rand.NewSource(opts.seed(52)))
	fixed, err := workload.Generate(workload.GeneratorConfig{
		Jobs:        opts.scale(40, 120),
		Arrival:     workload.FixedInterval{Interval: time.Second},
		TasksPerJob: stats.Uniform{Lo: 8, Hi: 24},
	}, r)
	if err != nil {
		return nil, fmt.Errorf("T2 P5 workload: %w", err)
	}
	var points []ecosystem.ScalePoint
	for _, machines := range []int{1, 2, 4, 8} {
		res, err := opendc.Run(&opendc.Scenario{
			Cluster:  dcmodel.NewHomogeneous("scale", machines, dcmodel.ClassCommodity, 8),
			Workload: fixed,
			Seed:     opts.seed(52),
		})
		if err != nil {
			return nil, fmt.Errorf("T2 P5 run: %w", err)
		}
		points = append(points, ecosystem.ScalePoint{Resources: machines, Makespan: res.Makespan})
	}
	curve, err := ecosystem.AnalyzeScaling(points)
	if err != nil {
		return nil, fmt.Errorf("T2 P5 scaling: %w", err)
	}
	score := ecosystem.SuperScalability(curve, mReact.Risk(elasticity.DefaultRiskWeights()))
	rep.Rows = append(rep.Rows,
		[]string{"—", "experiment", "P5: super-scalability = strong scaling × elasticity"},
		[]string{"closed", f("eff@8x=%.2f", curve.Efficiency[len(curve.Efficiency)-1]),
			f("serial fraction %.3f", curve.SerialFraction)},
		[]string{"combined", f("score=%.3f", score), "closed efficiency folded with open (react) risk"},
	)
	return rep, nil
}

// T3Challenges reproduces Table 3: the twenty challenges with their
// principle links, and runs micro-experiments for the three quantifiable
// systems challenges: C3 (fine- versus coarse-grained NFRs), C4
// (heterogeneity-aware placement), and C7 (the allocation×mode matrix of
// the dual scheduling problem).
func T3Challenges(opts Options) (*Report, error) {
	rep := &Report{
		ID:       "T3",
		Title:    "a shortlist of the challenges raised by MCS (Table 3)",
		Headline: "fine-grained NFRs cut resource waste (C3); heterogeneity-aware placement cuts makespan (C4); no single scheduling configuration dominates (C7)",
		Columns:  []string{"id", "type", "key aspects", "principles / result"},
	}
	for _, c := range ecosystem.Table3Challenges() {
		rep.Rows = append(rep.Rows, []string{c.ID, string(c.Type), c.KeyAspects, strings.Join(c.Principles, ",")})
	}

	// C3: coarse (provision whole-workflow peak for its whole life) versus
	// fine (provision per-stage level of parallelism) on a fork-join job.
	width := opts.scale(16, 64)
	lop := stats.NewTimeSeries() // per-stage level of parallelism
	lop.Add(0, 1)
	lop.Add(10*time.Minute, float64(width))
	lop.Add(40*time.Minute, 1)
	lop.Add(50*time.Minute, 0)
	horizon := 50 * time.Minute
	fine := elasticity.Compute(lop, lop, horizon, time.Minute)
	coarse := stats.NewTimeSeries()
	coarse.Add(0, float64(width))
	mCoarse := elasticity.Compute(lop, coarse, horizon, time.Minute)
	rep.Rows = append(rep.Rows,
		[]string{"C3*", "experiment", "coarse whole-workflow NFR", f("over-provision accO=%.2f", mCoarse.AccuracyO)},
		[]string{"C3*", "experiment", "fine per-stage NFR", f("over-provision accO=%.2f", fine.AccuracyO)},
	)

	// C4: heterogeneity-oblivious (first-fit) vs -aware (fastest-fit).
	r := rand.New(rand.NewSource(opts.seed(53)))
	het := dcmodel.NewHeterogeneous("het", []dcmodel.Mix{
		{Class: dcmodel.ClassSlow, Count: opts.scale(6, 24)},
		{Class: dcmodel.ClassCommodity, Count: opts.scale(3, 12)},
		{Class: dcmodel.ClassBig, Count: opts.scale(1, 4)},
	}, 16, r)
	w, err := workload.Generate(workload.GeneratorConfig{Jobs: opts.scale(60, 300)}, r)
	if err != nil {
		return nil, fmt.Errorf("T3 workload: %w", err)
	}
	for _, pl := range []sched.PlacementPolicy{sched.FirstFit{}, sched.FastestFit{}} {
		res, err := opendc.Run(&opendc.Scenario{
			Cluster: het, Workload: w,
			Sched: sched.Config{Placement: pl},
			Seed:  opts.seed(53),
		})
		if err != nil {
			return nil, fmt.Errorf("T3 C4 %s: %w", pl.Name(), err)
		}
		rep.Rows = append(rep.Rows, []string{"C4*", "experiment", "placement " + pl.Name(),
			f("makespan %s, mean response %s", res.Makespan.Round(time.Second), res.MeanResponse.Round(time.Millisecond))})
	}

	// C7: the dual-problem matrix — queue policy × queue mode.
	cluster := dcmodel.NewHomogeneous("dc", opts.scale(4, 6), dcmodel.ClassCommodity, 16)
	w2, err := workload.Generate(workload.GeneratorConfig{
		Jobs:           opts.scale(60, 300),
		CoresPerTask:   stats.Truncate{D: stats.LogNormal{Mu: 1.0, Sigma: 0.9}, Lo: 1, Hi: 16},
		RuntimeSeconds: stats.Truncate{D: stats.LogNormal{Mu: 5.3, Sigma: 1.0}, Lo: 30, Hi: 7200},
	}, rand.New(rand.NewSource(opts.seed(53)+1)))
	if err != nil {
		return nil, fmt.Errorf("T3 C7 workload: %w", err)
	}
	for _, q := range []sched.QueuePolicy{sched.FCFS{}, sched.SJF{}, sched.WFP3{}} {
		for _, mode := range []sched.QueueMode{sched.Strict, sched.EASY} {
			res, err := opendc.Run(&opendc.Scenario{
				Cluster: cluster, Workload: w2,
				Sched: sched.Config{Queue: q, Mode: mode},
				Seed:  opts.seed(53),
			})
			if err != nil {
				return nil, fmt.Errorf("T3 C7 %s/%v: %w", q.Name(), mode, err)
			}
			rep.Rows = append(rep.Rows, []string{"C7*", "experiment", q.Name() + "/" + mode.String(),
				f("mean wait %s, p95 slowdown %.1f", res.MeanWait.Round(time.Millisecond), res.P95Slowdown)})
		}
	}
	// C6: self-aware portfolio scheduling versus the fixed extremes on a
	// heavy-tailed workload.
	heavy, err := workload.Generate(workload.GeneratorConfig{
		Jobs:           opts.scale(150, 400),
		Arrival:        workload.Poisson{RatePerHour: 240},
		RuntimeSeconds: stats.Truncate{D: stats.Pareto{Xm: 20, Alpha: 1.1}, Lo: 20, Hi: 7200},
	}, rand.New(rand.NewSource(opts.seed(53)+2)))
	if err != nil {
		return nil, fmt.Errorf("T3 C6 workload: %w", err)
	}
	smallCluster := dcmodel.NewHomogeneous("dc", 2, dcmodel.ClassCommodity, 8)
	for _, q := range []sched.QueuePolicy{
		sched.LJF{}, sched.SJF{},
		sched.NewPortfolio(sched.LJF{}, sched.FCFS{}, sched.SJF{}),
	} {
		res, err := opendc.Run(&opendc.Scenario{
			Cluster: smallCluster, Workload: heavy,
			Sched: sched.Config{Queue: q, Mode: sched.Greedy},
			Seed:  opts.seed(53),
		})
		if err != nil {
			return nil, fmt.Errorf("T3 C6 %s: %w", q.Name(), err)
		}
		rep.Rows = append(rep.Rows, []string{"C6*", "experiment", "self-aware " + q.Name(),
			f("mean wait %s", res.MeanWait.Round(time.Millisecond))})
	}

	// C10: federated delegation versus siloed sites.
	hot, err := workload.Generate(workload.GeneratorConfig{
		Jobs:    opts.scale(120, 300),
		Arrival: workload.Poisson{RatePerHour: 600},
	}, rand.New(rand.NewSource(opts.seed(53)+3)))
	if err != nil {
		return nil, fmt.Errorf("T3 C10 workload: %w", err)
	}
	mkSites := func() []federation.Site {
		return []federation.Site{
			{Name: "eu-busy", Cluster: dcmodel.NewHomogeneous("eu", 2, dcmodel.ClassCommodity, 8), Local: hot.Jobs},
			{Name: "us-idle", Cluster: dcmodel.NewHomogeneous("us", 8, dcmodel.ClassCommodity, 8), WANDelay: 2 * time.Second},
		}
	}
	for _, pol := range []federation.RoutingPolicy{federation.LocalOnly, federation.LeastLoaded} {
		fres, err := federation.Run(mkSites(), pol, federation.Config{Seed: opts.seed(53)})
		if err != nil {
			return nil, fmt.Errorf("T3 C10 %v: %w", pol, err)
		}
		rep.Rows = append(rep.Rows, []string{"C10*", "experiment", "routing " + pol.String(),
			f("mean wait %s, delegated %d", fres.MeanWait.Round(time.Millisecond), fres.Delegated)})
	}

	rep.Notes = append(rep.Notes, "rows marked * are this toolkit's micro-experiments for the quantifiable challenges")
	return rep, nil
}

// T4UseCases prints Table 4, the six use cases, with the registered
// scenario kind that runs each domain end to end. Every kind has a document
// in the golden corpus, so each row's claim is checked there.
func T4UseCases(Options) (*Report, error) {
	rep := &Report{
		ID:       "T4",
		Title:    "selected use-cases for MCS (Table 4)",
		Headline: "each of the six application domains runs end-to-end on the toolkit",
		Columns:  []string{"§", "use case", "direction", "key aspects", "run by"},
	}
	runBy := map[string]string{
		"6.1": "datacenter kind (examples/sweep/portfolio.json, examples/paper/d2-failures.json)",
		"6.5": "faas kind (examples/paper/f5-keepwarm.json)",
		"6.6": "graph kind",
		"6.2": `datacenter kind, "workload": {"shape": "dag"}`,
		"6.3": "gaming kind",
		"6.4": "banking kind",
	}
	for _, u := range ecosystem.Table4UseCases() {
		direction := "exogenous"
		if u.Endogenous {
			direction = "endogenous"
		}
		rep.Rows = append(rep.Rows, []string{u.Section, u.Description, direction, u.KeyAspects, runBy[u.Section]})
	}
	rep.Notes = append(rep.Notes, "run any row: mcsim -example -kind <kind> > doc.json && mcsim -scenario doc.json")
	return rep, nil
}

// T5FieldComparison reproduces Table 5: the cross-science comparison of
// emerging fields under Ropohl's framework.
func T5FieldComparison(Options) (*Report, error) {
	rep := &Report{
		ID:       "T5",
		Title:    "comparison of fields (Table 5)",
		Headline: "MCS parallels other emergent fields; uniquely it spans design, engineering, and science objectives",
		Columns:  []string{"field", "emerging", "crisis", "continues", "obj", "object", "methodology", "character"},
	}
	for _, row := range ecosystem.Table5FieldComparison() {
		field := row.Field
		if row.Envisioned {
			field += " (envisioned)"
		}
		rep.Rows = append(rep.Rows, []string{
			field, f("%ds", row.EraEmerging), row.Crisis, row.Continues,
			row.Objectives, row.Object, row.Methodology, row.Character,
		})
	}
	rep.Notes = append(rep.Notes,
		"objectives: D=design E=engineering S=scientific; methodology: A=abstraction D=design H=hierarchy I=idealization S=simulation P=prototyping",
		"character: A=applicability C=community-approved E=empirically-accurate H=harmony M=mathematical S=simplicity T=truth U=universality")
	return rep, nil
}

// burstyDemand builds an MMPP-driven demand curve (units of concurrency) for
// the elasticity experiments.
func burstyDemand(seed int64, hours int) *stats.TimeSeries {
	r := rand.New(rand.NewSource(seed))
	arr := &workload.MMPP2{CalmRatePerHour: 30, BurstRatePerHour: 600, MeanCalm: 45 * time.Minute, MeanBurst: 10 * time.Minute}
	// Demand = number of concurrently running 10-minute sessions.
	type ev struct {
		at    time.Duration
		delta int
	}
	var evs []ev
	var clock time.Duration
	horizon := time.Duration(hours) * time.Hour
	for clock < horizon {
		clock += arr.Next(r)
		if clock >= horizon {
			break
		}
		dur := time.Duration((5 + r.ExpFloat64()*10) * float64(time.Minute))
		evs = append(evs, ev{clock, +1}, ev{clock + dur, -1})
	}
	ts := stats.NewTimeSeries()
	// Sort events and integrate.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].at < evs[j-1].at; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	cur := 0
	for _, e := range evs {
		cur += e.delta
		if e.at <= horizon {
			ts.Add(e.at, float64(cur))
		}
	}
	return ts
}
