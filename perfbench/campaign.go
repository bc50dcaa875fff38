package main

// The campaign workload: a sweep document through dist.Coordinator on one
// stdio subprocess worker, which is this binary in its worker role.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"mcs/internal/dist"
	"mcs/internal/obs"
	"mcs/internal/scenario"
)

func serveWorker() error {
	return dist.ServeStdio(os.Stdin, os.Stdout)
}

// iterateCampaign runs one campaign: fleet start + coordinator (set-up),
// Coordinator.Run, encode of the combined report.
func iterateCampaign(doc []byte, traced bool) (sample, error) {
	var s sample
	exe, err := os.Executable()
	if err != nil {
		return s, err
	}
	gridCells, err := gridSize(doc)
	if err != nil {
		return s, err
	}
	s.Expected = gridCells

	var (
		tr       *tracer
		events   *eventLog
		sink     obs.Sink
		worker   *dist.Subprocess
		coord    *dist.Coordinator
		start    time.Time
		fleetS   float64
		setupS   float64 // of the set-up that runs
		setups   []float64
		spent    time.Duration
		expandS  float64
		expandMB float64
	)
	if traced {
		tr = newTracer()
		// The sweep front half, timed on its own: the coordinator runs the
		// same expansion inside Run, where it cannot be seen from here.
		a := tr.read()
		if _, err := scenario.ParseCommon(doc); err != nil {
			return s, err
		}
		b := tr.read()
		if _, _, _, err := scenario.ExpandSweepDocument(doc); err != nil {
			return s, err
		}
		c := tr.read()
		tr.span("parse", a, b)
		expandS, expandMB = c.at.Sub(b.at).Seconds(), c.allocMB-b.allocMB
		events = &eventLog{}
		sink = events
	}
	for len(setups) < maxSetupReps && spent < setupBudget {
		if worker != nil {
			// An earlier set-up that will not run: stop its worker.
			worker.Close()
		}
		start = time.Now()
		if worker, err = dist.StartSubprocess([]string{exe, "-role", "worker"}); err != nil {
			return s, err
		}
		fleetS = time.Since(start).Seconds()
		if coord, err = dist.NewCoordinator([]dist.Worker{worker}, dist.Options{Events: sink}); err != nil {
			worker.Close()
			return s, err
		}
		d := time.Since(start)
		setupS = d.Seconds()
		setups = append(setups, setupS)
		spent += d
	}
	s.SetupS = median(setups)

	a := tr.read()
	events.begin()
	res, failures, err := coord.Run(context.Background(), doc)
	if err != nil {
		return s, err
	}
	b := tr.read()
	report, err := encode(res)
	if err != nil {
		return s, err
	}
	s.WallS = time.Since(start).Seconds()
	c := tr.read()
	// Run has closed and reaped the worker, so its peak is in the
	// children's rusage.
	s.PeakRSSMB = math.Max(selfPeakRSSMB(), childrenPeakRSSMB())
	s.Digest = digest(report)
	s.Completed = len(res.Cells) - len(failures)

	if traced {
		tr.span("run", a, b)
		tr.span("encode", b, c)
		tr.runtimeDeltas(c)
		l := tr.layer
		l["scenario.configure_s"] = expandS
		l["scenario.configure_alloc_mb"] = expandMB
		l["scenario.report_bytes"] = float64(len(report))
		l["sim.events"] = float64(res.Events)
		l["sim.events_per_run_s"] = float64(res.Events) / l["scenario.run_s"]
		l["runtime.live_heap_mb_after_run"] = b.liveMB
		l["dist.fleet_start_s"] = fleetS
		l["dist.coordinator_s"] = l["scenario.run_s"]
		events.summarize(l)
		l["bench.unattributed_s"] = s.WallS - setupS - l["scenario.run_s"] - l["scenario.encode_s"]
		s.Layer = l
	}

	switch {
	case len(failures) > 0:
		return s, fmt.Errorf("campaign: %d failed cells, first %s: %s", len(failures), failures[0].Key, failures[0].Msg)
	case len(res.Cells) != gridCells:
		return s, fmt.Errorf("campaign: report has %d cells, grid has %d", len(res.Cells), gridCells)
	}
	if traced {
		// The fleet's bytes must equal an in-process run of the same sweep.
		ref, err := scenario.RunDocument(doc)
		if err != nil {
			return s, fmt.Errorf("in-process reference: %w", err)
		}
		refReport, err := encode(ref)
		if err != nil {
			return s, err
		}
		if digest(refReport) != s.Digest {
			return s, fmt.Errorf("campaign: dist report differs from in-process scenario.RunDocument")
		}
	}
	return s, nil
}

// gridSize is the number of cells a sweep document expands to.
func gridSize(doc []byte) (int, error) {
	var d struct {
		Grid        map[string][]json.RawMessage
		Repetitions int
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return 0, err
	}
	n := max(d.Repetitions, 1)
	for _, values := range d.Grid {
		n *= len(values)
	}
	return n, nil
}

// eventLog is the traced campaign's progress sink. It stamps each event on
// receipt with the monotonic clock, because obs.Event.T has only
// millisecond resolution.
type eventLog struct {
	mu     sync.Mutex
	base   time.Time
	events []stampedEvent
}

type stampedEvent struct {
	ev obs.Event
	at float64 // seconds since begin
}

func (l *eventLog) begin() {
	if l != nil {
		l.base = time.Now()
	}
}

// Emit implements obs.Sink.
func (l *eventLog) Emit(ev obs.Event) {
	at := time.Since(l.base).Seconds()
	l.mu.Lock()
	l.events = append(l.events, stampedEvent{ev, at})
	l.mu.Unlock()
}

// summarize derives the dist.* metrics from the event log. A cell's gap is
// the time between its cell-finished event and the previous cell-finished
// event of the same worker: the worker's time for that cell, as seen from
// the coordinator. Its wait is the rest of its started→finished interval.
func (l *eventLog) summarize(layer map[string]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var executions, cells, retries, failed float64
	started := map[int]float64{}
	lastFinish := map[string]float64{}
	var gaps, waits []float64
	for _, se := range l.events {
		switch se.ev.Type {
		case obs.CellStarted:
			executions++
			started[se.ev.Cell] = se.at
		case obs.CellFinished:
			cells++
			if prev, ok := lastFinish[se.ev.Worker]; ok {
				gap := se.at - prev
				gaps = append(gaps, gap)
				waits = append(waits, se.at-started[se.ev.Cell]-gap)
			}
			lastFinish[se.ev.Worker] = se.at
		case obs.CellRetried:
			retries++
		case obs.CellFailed:
			failed++
		}
	}
	var busy float64
	for _, g := range gaps {
		busy += g
	}
	coordS := layer["dist.coordinator_s"]
	workers := float64(max(len(lastFinish), 1))
	layer["dist.cells"] = cells
	layer["dist.executions"] = executions
	layer["dist.useful_ratio"] = cells / math.Max(executions, 1)
	layer["dist.retries"] = retries
	layer["dist.failures"] = failed
	layer["dist.cell_samples"] = float64(len(gaps))
	layer["dist.cell_p50_s"] = percentile(gaps, 0.50)
	layer["dist.cell_p95_s"] = percentile(gaps, 0.95)
	layer["dist.cell_wait_s"] = median(waits)
	layer["dist.worker_busy_share"] = busy / (coordS * workers)
	layer["dist.overhead_per_cell_s"] = (coordS - busy) / math.Max(cells, 1)
}

// percentile is the nearest-rank percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
