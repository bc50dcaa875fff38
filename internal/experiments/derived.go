package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"mcs/internal/autoscale"
	"mcs/internal/dcmodel"
	"mcs/internal/elasticity"
	"mcs/internal/graphproc"
	"mcs/internal/opendc"
	"mcs/internal/social"
	"mcs/internal/stats"
	"mcs/internal/workload"
)

// D3ElasticityMetrics reproduces the SPEC RG elasticity metric set of [32]
// (P3/C3): the metrics discriminate under-, over-, and well-provisioned
// supplies that a single "utilization" number cannot.
func D3ElasticityMetrics(opts Options) (*Report, error) {
	rep := &Report{
		ID:       "D3",
		Title:    "SPEC elasticity metrics on canonical supply shapes (per [32])",
		Headline: "elasticity is multi-metric: each supply pathology lights up a different metric",
		Columns:  []string{"supply", "accU", "accO", "tsU", "tsO", "instability", "jitter/h", "risk"},
	}
	demand := burstyDemand(opts.seed(63), opts.scale(6, 24))
	horizon := demand.End() + time.Minute
	peak := demand.MaxValue()
	supplies := []struct {
		name string
		ts   *stats.TimeSeries
	}{
		{"exact", demand},
		{"half", scaleSeries(demand, 0.5)},
		{"peak-static", constSeries(peak)},
		{"oscillating", oscillatingSeries(peak, horizon)},
		{"lagged", lagSeries(demand, 10*time.Minute)},
	}
	weights := elasticity.DefaultRiskWeights()
	for _, s := range supplies {
		m := elasticity.Compute(demand, s.ts, horizon, time.Minute)
		rep.Rows = append(rep.Rows, []string{
			s.name,
			f("%.3f", m.AccuracyU), f("%.3f", m.AccuracyO),
			f("%.3f", m.TimeshareU), f("%.3f", m.TimeshareO),
			f("%.3f", m.Instability), f("%.1f", m.JitterPerHour),
			f("%.3f", m.Risk(weights)),
		})
	}
	return rep, nil
}

// D4GraphPAD reproduces the P-A-D triangle of §6.6 (refs [45], [46]):
// graph-processing performance is a joint function of Platform, Algorithm,
// and Dataset — the per-cell winner between engines changes with the
// algorithm and the graph class.
func D4GraphPAD(opts Options) (*Report, error) {
	rep := &Report{
		ID:       "D4",
		Title:    "P-A-D performance triangle: engines × kernels × graph classes",
		Headline: "performance is a P-A-D function: no engine dominates across all (algorithm, dataset) cells",
		Columns:  []string{"graph", "algorithm", "sequential", "parallel-bsp", "speedup"},
	}
	scale := opts.scale(9, 13)
	r := rand.New(rand.NewSource(opts.seed(64)))
	graphs := []struct {
		name string
		kind graphproc.GeneratorKind
	}{
		{"rmat (skewed)", graphproc.RMAT},
		{"er (uniform)", graphproc.ER},
		{"grid (regular)", graphproc.Grid2D},
	}
	algs := graphproc.Algorithms()
	if opts.Quick {
		algs = []graphproc.Algorithm{graphproc.AlgBFS, graphproc.AlgPageRank, graphproc.AlgWCC}
	}
	for _, gspec := range graphs {
		g, err := graphproc.Generate(gspec.kind, scale, 8, true, r)
		if err != nil {
			return nil, fmt.Errorf("D4 %s: %w", gspec.name, err)
		}
		for _, alg := range algs {
			seq, err := graphproc.RunAlgorithm(g, alg, graphproc.Sequential)
			if err != nil {
				return nil, err
			}
			par, err := graphproc.RunAlgorithm(g, alg, graphproc.ParallelBSP)
			if err != nil {
				return nil, err
			}
			speedup := 0.0
			if par.Makespan > 0 {
				speedup = float64(seq.Makespan) / float64(par.Makespan)
			}
			rep.Rows = append(rep.Rows, []string{
				gspec.name, string(alg),
				seq.Makespan.Round(time.Microsecond).String(),
				par.Makespan.Round(time.Microsecond).String(),
				f("%.2fx", speedup),
			})
		}
	}
	rep.Notes = append(rep.Notes, f("graphs at scale %d (2^%d vertices), edge factor 8; dataset skew drives the D axis", scale, scale))
	return rep, nil
}

// D5SocialAware reproduces the C5 claim (refs [82], [105], [108]): implicit
// social structure (job groupings) predicts near-future load, so a
// social-aware provisioner under-provisions less than a purely reactive one
// at equal average supply.
func D5SocialAware(opts Options) (*Report, error) {
	rep := &Report{
		ID:       "D5",
		Title:    "social-aware (grouping-predictive) vs oblivious provisioning",
		Headline: "job groupings predict batch continuations: the social-aware provisioner cuts under-provisioning",
		Columns:  []string{"provisioner", "accU", "accO", "tsU", "risk"},
	}
	r := rand.New(rand.NewSource(opts.seed(65)))
	// Strongly grouped workload: users submit batches.
	w, err := workload.Generate(workload.GeneratorConfig{
		Jobs:    opts.scale(300, 2000),
		Users:   12,
		Arrival: &workload.MMPP2{CalmRatePerHour: 20, BurstRatePerHour: 1200, MeanCalm: time.Hour, MeanBurst: 5 * time.Minute},
	}, r)
	if err != nil {
		return nil, fmt.Errorf("D5 workload: %w", err)
	}
	// Demand: jobs in a sliding 10-minute window.
	horizon := w.Jobs[len(w.Jobs)-1].Submit + 10*time.Minute
	demand := stats.NewTimeSeries()
	window := 10 * time.Minute
	for i := range w.Jobs {
		cnt := 0
		for j := i; j >= 0 && w.Jobs[i].Submit-w.Jobs[j].Submit <= window; j-- {
			cnt++
		}
		demand.Add(w.Jobs[i].Submit, float64(cnt))
	}
	// Learn groupings on the first half; provision on the second half.
	half := len(w.Jobs) / 2
	histW := &workload.Workload{Jobs: w.Jobs[:half]}
	groups := social.JobGroupings(histW, 5*time.Minute)
	predictor := social.NewGroupPredictor(groups)

	// Oblivious: React. Social-aware: React plus predicted batch remainder.
	reactSupply := autoscale.Simulate(autoscale.React{}, demand, horizon, autoscale.SimOptions{
		Interval: time.Minute, ProvisioningDelay: 2 * time.Minute, MinSupply: 1,
	})
	socialSupply := simulateSocialAware(w, demand, predictor, horizon)

	weights := elasticity.DefaultRiskWeights()
	for _, s := range []struct {
		name string
		ts   *stats.TimeSeries
	}{{"react (oblivious)", reactSupply}, {"social-aware", socialSupply}} {
		m := elasticity.Compute(demand, s.ts, horizon, time.Minute)
		rep.Rows = append(rep.Rows, []string{
			s.name, f("%.3f", m.AccuracyU), f("%.3f", m.AccuracyO),
			f("%.3f", m.TimeshareU), f("%.3f", m.Risk(weights)),
		})
	}
	rep.Notes = append(rep.Notes, f("learned %d groupings from the first half of the trace", len(groups)))
	return rep, nil
}

// simulateSocialAware provisions React's target plus the predicted remainder
// of currently open submission batches, with the same provisioning delay.
func simulateSocialAware(w *workload.Workload, demand *stats.TimeSeries, p *social.GroupPredictor, horizon time.Duration) *stats.TimeSeries {
	supply := stats.NewTimeSeries()
	supply.Add(0, 1)
	const interval = time.Minute
	const delay = 2 * time.Minute
	current := 1
	jobIdx := 0
	open := map[string]struct {
		seen int
		last time.Duration
	}{}
	for now := time.Duration(0); now <= horizon; now += interval {
		for jobIdx < len(w.Jobs) && w.Jobs[jobIdx].Submit <= now {
			u := w.Jobs[jobIdx].User
			st := open[u]
			if st.seen > 0 && w.Jobs[jobIdx].Submit-st.last > 5*time.Minute {
				st.seen = 0 // new batch
			}
			st.seen++
			st.last = w.Jobs[jobIdx].Submit
			open[u] = st
			jobIdx++
		}
		predicted := 0.0
		for u, st := range open {
			if now-st.last <= 5*time.Minute {
				predicted += p.ExpectedRemaining(u, st.seen)
			}
		}
		want := int(demand.At(now) + predicted + 0.5)
		if want < 1 {
			want = 1
		}
		if want == current {
			continue
		}
		if want > current {
			supply.Add(now+delay, float64(want))
		} else {
			supply.Add(now, float64(want))
		}
		current = want
	}
	return supply
}

// D6PerfVariability reproduces the performance-variability claim of [145]
// (C16/C19): identical requests on a multi-tenant ecosystem exhibit
// substantial run-to-run variability once background tenants contend.
func D6PerfVariability(opts Options) (*Report, error) {
	rep := &Report{
		ID:       "D6",
		Title:    "performance variability of identical runs under multi-tenancy (per [145])",
		Headline: "identical workloads show low variability on a quiet cluster and heavy-tailed response variability under background tenants",
		Columns:  []string{"environment", "runs", "mean response", "CV", "p99/p50"},
	}
	runs := opts.scale(8, 30)
	for _, env := range []struct {
		name       string
		background int
	}{{"quiet", 0}, {"multi-tenant", opts.scale(250, 600)}} {
		var responses []float64
		for i := 0; i < runs; i++ {
			seed := opts.seed(66) + int64(i)
			r := rand.New(rand.NewSource(seed))
			// The probe: a fixed 20-task bag submitted at t=1h.
			probe := workload.Job{ID: 9999, User: "probe", Submit: time.Hour}
			for t := 0; t < 20; t++ {
				probe.Tasks = append(probe.Tasks, workload.Task{
					ID: workload.TaskID(100000 + t), Job: 9999, Cores: 2, MemoryMB: 1024,
					Runtime: 5 * time.Minute,
				})
			}
			jobs := []workload.Job{}
			if env.background > 0 {
				bg, err := workload.Generate(workload.GeneratorConfig{
					Jobs:           env.background,
					Arrival:        &workload.MMPP2{CalmRatePerHour: 120, BurstRatePerHour: 2400, MeanCalm: 20 * time.Minute, MeanBurst: 15 * time.Minute},
					RuntimeSeconds: stats.Truncate{D: stats.LogNormal{Mu: 5.5, Sigma: 1.0}, Lo: 60, Hi: 7200},
					CoresPerTask:   stats.Truncate{D: stats.LogNormal{Mu: 1.0, Sigma: 0.8}, Lo: 1, Hi: 16},
				}, r)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, bg.Jobs...)
			}
			// Insert the probe keeping submit order.
			var merged []workload.Job
			inserted := false
			for _, j := range jobs {
				if !inserted && j.Submit > probe.Submit {
					merged = append(merged, probe)
					inserted = true
				}
				merged = append(merged, j)
			}
			if !inserted {
				merged = append(merged, probe)
			}
			res, err := opendc.Run(&opendc.Scenario{
				Cluster:  dcmodel.NewHomogeneous("mt", opts.scale(3, 8), dcmodel.ClassCommodity, 8),
				Workload: &workload.Workload{Jobs: merged},
				Seed:     seed,
			})
			if err != nil {
				return nil, fmt.Errorf("D6 run: %w", err)
			}
			// Probe response: last probe task finish - submit.
			var finish time.Duration
			for _, rec := range res.Records {
				if rec.Job == 9999 && rec.Completed && rec.Finish > finish {
					finish = rec.Finish
				}
			}
			responses = append(responses, (finish - probe.Submit).Seconds())
		}
		s := stats.Summarize(responses)
		tail := 0.0
		if s.P50 > 0 {
			tail = s.P99 / s.P50
		}
		rep.Rows = append(rep.Rows, []string{
			env.name, f("%d", runs),
			time.Duration(s.Mean * float64(time.Second)).Round(time.Second).String(),
			f("%.3f", s.CV), f("%.2f", tail),
		})
	}
	return rep, nil
}

// --- demand-shape helpers ---

func constSeries(v float64) *stats.TimeSeries {
	ts := stats.NewTimeSeries()
	ts.Add(0, v)
	return ts
}

func scaleSeries(src *stats.TimeSeries, factor float64) *stats.TimeSeries {
	ts := stats.NewTimeSeries()
	for _, p := range src.Points() {
		ts.Add(p.T, p.V*factor)
	}
	return ts
}

func lagSeries(src *stats.TimeSeries, lag time.Duration) *stats.TimeSeries {
	ts := stats.NewTimeSeries()
	ts.Add(0, 0)
	for _, p := range src.Points() {
		ts.Add(p.T+lag, p.V)
	}
	return ts
}

func oscillatingSeries(peak float64, horizon time.Duration) *stats.TimeSeries {
	ts := stats.NewTimeSeries()
	high := true
	for t := time.Duration(0); t < horizon; t += 5 * time.Minute {
		v := peak
		if !high {
			v = 1
		}
		ts.Add(t, v)
		high = !high
	}
	return ts
}
