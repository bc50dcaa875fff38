package main

// One iteration of a workload, run in a fresh child process. The document
// arrives on stdin; the iteration's sample leaves on stdout as one JSON
// line. Timing starts with the document bytes in hand.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mcs/internal/obs"
	"mcs/internal/scenario"
)

// sample is what one iteration reports to the driving process.
type sample struct {
	WallS  float64 `json:"wallS"`
	SetupS float64 `json:"setupS"`
	// Expected is the number of items the document asked for; Completed
	// the number the report shows done.
	Expected  int     `json:"expected"`
	Completed int     `json:"completed"`
	PeakRSSMB float64 `json:"peakRssMb"`
	// Digest is the SHA-256 of the encoded report.
	Digest string `json:"digest"`
	// Err is set when the run failed or a check did not hold.
	Err string `json:"error,omitempty"`
	// Layer holds the per-layer metrics of a traced iteration.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// Set-up is repeated inside one iteration until it has taken setupBudget
// or run maxSetupReps times, and its median is reported: a set-up of well
// under a millisecond would otherwise be one noisy sample. Only the last
// set-up's instance runs, and only it counts toward wall time.
const (
	setupBudget  = 50 * time.Millisecond
	maxSetupReps = 51
)

func runChild(name string, traced bool) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	doc, err := io.ReadAll(os.Stdin)
	if err != nil {
		return fmt.Errorf("read document: %w", err)
	}
	var s sample
	if w.name == "campaign" {
		s, err = iterateCampaign(doc, traced)
	} else {
		s, err = iterateDocument(w, doc, traced)
	}
	if err != nil {
		s.Err = err.Error()
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

// iterateDocument runs one scenario document through the registry:
// ParseCommon + New (set-up), RunScenario, encode.
func iterateDocument(w *workload, doc []byte, traced bool) (sample, error) {
	var (
		s      sample
		tr     *tracer
		sc     scenario.Scenario
		common scenario.Common
		start  time.Time
		setups []float64
		spent  time.Duration
		err    error
	)
	if traced {
		tr = newTracer()
	}
	for len(setups) < maxSetupReps && spent < setupBudget {
		start = time.Now()
		a := tr.read()
		if common, err = scenario.ParseCommon(doc); err != nil {
			return s, err
		}
		b := tr.read()
		if sc, err = scenario.New(common.Kind, doc); err != nil {
			return s, err
		}
		c := tr.read()
		tr.span("parse", a, b)
		tr.span("configure", b, c)
		d := time.Since(start)
		setups = append(setups, d.Seconds())
		spent += d
	}
	s.SetupS = median(setups)

	var res *scenario.Result
	var stats *obs.KernelStats
	a := tr.read()
	if traced {
		stats = &obs.KernelStats{}
		res, err = scenario.RunScenarioObserved(sc, common.Seed, stats)
	} else {
		res, err = scenario.RunScenario(sc, common.Seed)
	}
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
	s.PeakRSSMB = selfPeakRSSMB()
	s.Digest = digest(report)

	if traced {
		tr.span("run", a, b)
		tr.span("encode", b, c)
		tr.runtimeDeltas(c)
		snap := stats.Snapshot()
		if snap.Dispatched() != res.Events {
			return s, fmt.Errorf("kernel dispatched %d events, report says %d", snap.Dispatched(), res.Events)
		}
		l := tr.layer
		l["scenario.report_bytes"] = float64(len(report))
		l["sim.events"] = float64(res.Events)
		l["sim.dispatch_heap"] = float64(snap.HeapDispatched)
		l["sim.dispatch_wheel"] = float64(snap.WheelDispatched)
		l["sim.dispatch_immediate"] = float64(snap.ImmediateDispatched)
		l["sim.dispatch_stream"] = float64(snap.StreamDispatched)
		l["sim.canceled"] = float64(snap.Canceled)
		l["sim.wheel_rotations"] = float64(snap.WheelRotations)
		l["sim.horizon_overflow"] = float64(snap.HorizonOverflow)
		l["sim.events_per_run_s"] = float64(res.Events) / l["scenario.run_s"]
		l["runtime.live_heap_mb_after_run"] = b.liveMB
		l["bench.unattributed_s"] = s.WallS - l["scenario.parse_s"] - l["scenario.configure_s"] - l["scenario.run_s"] - l["scenario.encode_s"]
		s.Layer = l
	}

	s.Expected, s.Completed, err = w.check(sc, doc, res)
	if err == nil && s.Completed != s.Expected {
		err = fmt.Errorf("%s: report shows %d items done, document asked for %d", w.name, s.Completed, s.Expected)
	}
	return s, err
}

// encode renders a report exactly as cmd/mcsim prints it.
func encode(res *scenario.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return nil, fmt.Errorf("encode report: %w", err)
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// selfPeakRSSMB reads this process's VmHWM.
func selfPeakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// childrenPeakRSSMB is the largest peak RSS among this process's reaped
// children (Linux reports ru_maxrss in kB).
func childrenPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// tracer times the calls into each layer from the benchmark's side and
// reads the Go runtime's counters around them. A nil *tracer is the
// untraced run: every method is then a no-op.
type tracer struct {
	samples []metrics.Sample
	first   reading
	layer   map[string]float64
}

// reading is one snapshot of the clock and the runtime counters.
type reading struct {
	at       time.Time
	cpuS     float64
	allocMB  float64
	gcCPUS   float64
	gcCycles float64
	gcPauseS float64
	liveMB   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/gc/heap/live:bytes",
}

func newTracer() *tracer {
	tr := &tracer{layer: map[string]float64{}}
	for _, name := range runtimeMetricNames {
		tr.samples = append(tr.samples, metrics.Sample{Name: name})
	}
	tr.first = tr.read()
	return tr
}

func (tr *tracer) read() reading {
	if tr == nil {
		return reading{}
	}
	metrics.Read(tr.samples)
	const mb = 1 << 20
	return reading{
		at:       time.Now(),
		cpuS:     cpuSeconds(),
		allocMB:  float64(tr.samples[0].Value.Uint64()) / mb,
		gcCPUS:   tr.samples[1].Value.Float64(),
		gcCycles: float64(tr.samples[2].Value.Uint64()),
		gcPauseS: histogramSum(tr.samples[3].Value.Float64Histogram()),
		liveMB:   float64(tr.samples[4].Value.Uint64()) / mb,
	}
}

// span records the wall time and allocation of one layer call as
// scenario.<name>_s and, for configure and run, scenario.<name>_alloc_mb.
func (tr *tracer) span(name string, a, b reading) {
	if tr == nil {
		return
	}
	tr.layer["scenario."+name+"_s"] = b.at.Sub(a.at).Seconds()
	if name == "configure" || name == "run" {
		tr.layer["scenario."+name+"_alloc_mb"] = b.allocMB - a.allocMB
	}
}

// runtimeDeltas records the runtime.* metrics over the whole iteration.
// CPU time comes from getrusage: the runtime's own /cpu/classes totals are
// refreshed only at GC, so they undercount a run's tail. GC CPU accrues
// only at GC and is read from runtime/metrics.
func (tr *tracer) runtimeDeltas(end reading) {
	tr.layer["runtime.cpu_s"] = end.cpuS - tr.first.cpuS
	tr.layer["runtime.gc_cpu_s"] = end.gcCPUS - tr.first.gcCPUS
	tr.layer["runtime.gc_cycles"] = end.gcCycles - tr.first.gcCycles
	tr.layer["runtime.gc_pause_s"] = end.gcPauseS - tr.first.gcPauseS
}

// histogramSum estimates the total of a runtime histogram from its bucket
// midpoints; the runtime's time buckets are narrow enough for a few
// percent of error.
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}
