package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: mcs
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKernelThroughput/schedule-8         	 3077650	       199.4 ns/op	   5016158 events/sec
BenchmarkKernelThroughput/afterfunc-8        	 3741152	       142.5 ns/op	   7017662 events/sec
BenchmarkGamingMillionSessions-8             	       1	12769540905 ns/op	    337047 events/sec	       268.5 peakRSS-MB
PASS
ok  	mcs	1.511s
`

func TestParseBenchNormalizesNames(t *testing.T) {
	measured, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(measured) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(measured))
	}
	if e := measured["BenchmarkKernelThroughput/schedule"]; e.NsPerOp != 199.4 {
		t.Errorf("schedule ns/op = %v (GOMAXPROCS suffix not stripped?)", e.NsPerOp)
	}
	if e := measured["BenchmarkKernelThroughput/afterfunc"]; e.NsPerOp != 142.5 {
		t.Errorf("afterfunc ns/op = %v", e.NsPerOp)
	}
	if e := measured["BenchmarkKernelThroughput/schedule"]; e.EventsPerSec != 5016158 {
		t.Errorf("schedule events/sec = %v, want 5016158", e.EventsPerSec)
	}
	got := measured["BenchmarkGamingMillionSessions"]
	if got.EventsPerSec != 337047 || got.PeakRSSMB != 268.5 {
		t.Errorf("million-session metrics = %+v, want events/sec 337047 and peakRSS-MB 268.5", got)
	}
}

func TestParseBenchKeepsBestOfN(t *testing.T) {
	// -count=3 output: three lines per benchmark; the minimum-ns/op line
	// wins, and its metric columns ride along as one coherent measurement.
	repeated := `BenchmarkKernelThroughput/schedule-8  100  250.0 ns/op  4000000 events/sec  300.0 peakRSS-MB
BenchmarkKernelThroughput/schedule-8  100  199.0 ns/op  5000000 events/sec  290.0 peakRSS-MB
BenchmarkKernelThroughput/schedule-8  100  230.0 ns/op  4300000 events/sec  310.0 peakRSS-MB
`
	measured, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	e := measured["BenchmarkKernelThroughput/schedule"]
	if e.NsPerOp != 199.0 {
		t.Errorf("best-of-3 ns/op = %v, want 199.0", e.NsPerOp)
	}
	if e.EventsPerSec != 5000000 || e.PeakRSSMB != 290.0 {
		t.Errorf("metrics from winning line = %+v, want events/sec 5000000 and peakRSS-MB 290.0", e)
	}
}

func TestWriteThenCompareRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	var out strings.Builder
	if err := run([]string{"-write", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	// Same numbers: passes.
	out.Reset()
	if err := run([]string{"-baseline", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatalf("self-comparison failed: %v\n%s", err, out.String())
	}
	// 30% slower than baseline: fails at the default 25% gate.
	slow := strings.ReplaceAll(sampleBench, "199.4 ns/op", "260.0 ns/op")
	out.Reset()
	if err := run([]string{"-baseline", path}, strings.NewReader(slow), &out); err == nil {
		t.Fatalf("30%% regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("no FAIL row in report:\n%s", out.String())
	}
	// Same 30% but with a loosened gate: passes.
	out.Reset()
	if err := run([]string{"-baseline", path, "-max-regress", "0.5"}, strings.NewReader(slow), &out); err != nil {
		t.Errorf("loosened gate still failed: %v", err)
	}
	// Speedups never fail.
	fast := strings.ReplaceAll(sampleBench, "199.4 ns/op", "100.0 ns/op")
	out.Reset()
	if err := run([]string{"-baseline", path}, strings.NewReader(fast), &out); err != nil {
		t.Errorf("speedup failed the gate: %v", err)
	}
}

func TestCompareGatesPeakRSS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	var out strings.Builder
	if err := run([]string{"-write", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	// 30% more RSS at identical ns/op: fails the default 25% RSS gate.
	bloated := strings.ReplaceAll(sampleBench, "268.5 peakRSS-MB", "350.0 peakRSS-MB")
	out.Reset()
	if err := run([]string{"-baseline", path}, strings.NewReader(bloated), &out); err == nil {
		t.Fatalf("30%% RSS regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "RSS-REGRESSED") {
		t.Errorf("no RSS-REGRESSED marker in report:\n%s", out.String())
	}
	// Same bloat under a loosened RSS gate: passes.
	out.Reset()
	if err := run([]string{"-baseline", path, "-max-rss-regress", "0.5"}, strings.NewReader(bloated), &out); err != nil {
		t.Errorf("loosened RSS gate still failed: %v\n%s", err, out.String())
	}
	// A run whose lines carry no peakRSS-MB column skips the RSS gate
	// entirely (the kernel benchmarks never report it).
	noRSS := strings.ReplaceAll(sampleBench, "\t       268.5 peakRSS-MB", "")
	out.Reset()
	if err := run([]string{"-baseline", path}, strings.NewReader(noRSS), &out); err != nil {
		t.Errorf("run without RSS columns failed against an RSS baseline: %v\n%s", err, out.String())
	}
}

func TestCompareToleratesBaselineEntriesMissingFromRun(t *testing.T) {
	// A kernel-only bench run must not trip over baseline entries for
	// benchmarks that were not piped in (e.g. the federation benchmark):
	// they are counted once in the summary, not failed or listed.
	path := filepath.Join(t.TempDir(), "baseline.json")
	baseline := `{"benchmarks": {
		"BenchmarkKernelThroughput/schedule":  {"nsPerOp": 199.4},
		"BenchmarkKernelThroughput/afterfunc": {"nsPerOp": 142.5},
		"BenchmarkFederationMultiSite/parallel=1": {"nsPerOp": 9999999},
		"BenchmarkFederationMultiSite/parallel=4": {"nsPerOp": 9999999}
	}}`
	if err := os.WriteFile(path, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-baseline", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatalf("kernel-only run failed against a baseline with extra entries: %v\n%s", err, out.String())
	}
	report := out.String()
	if strings.Contains(report, "Federation") {
		t.Errorf("skipped benchmarks listed one by one:\n%s", report)
	}
	if strings.Count(report, "2 of 4 baseline benchmark(s) compared, 2 missing") != 1 {
		t.Errorf("no single comparison summary in report:\n%s", report)
	}
	if strings.Contains(report, "FAIL") {
		t.Errorf("missing benchmarks reported as failures:\n%s", report)
	}
}

func TestCompareRejectsEmptyAndDisjoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks": {"BenchmarkOther": {"nsPerOp": 10}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-baseline", path}, strings.NewReader(sampleBench), &out); err == nil {
		t.Error("disjoint baseline accepted")
	}
	if err := run([]string{"-baseline", path}, strings.NewReader("no benchmarks here\n"), &out); err == nil {
		t.Error("empty bench output accepted")
	}
}
