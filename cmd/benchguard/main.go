// Command benchguard is the CI bench-regression gate: it parses `go test
// -bench` output from stdin, compares each benchmark's ns/op — and, when
// recorded, its peak-RSS metric — against a committed baseline, and exits
// non-zero when any benchmark regresses by more than the allowed fraction.
//
// Usage:
//
//	go test . -bench=BenchmarkKernelThroughput -benchtime=0.5s -count=3 | \
//	    go run ./cmd/benchguard -baseline BENCH_BASELINE.json
//
// With -count=N, the guard scores each benchmark by the line with the best
// (minimum) ns/op — a run can only be artificially slow, never artificially
// fast, so best-of-N cancels host-load noise. Custom metrics (events/sec,
// peakRSS-MB, reported by the benchmarks via b.ReportMetric) ride along from
// the winning line: events/sec is recorded for the report, peakRSS-MB is
// gated like ns/op but under its own -max-rss-regress threshold (memory
// footprints are near-deterministic, so the default 25% is generous).
//
// Re-baselining (after an intentional kernel change, on a quiet machine):
//
//	go test . -bench=BenchmarkKernelThroughput -benchtime=0.5s -count=3 | \
//	    go run ./cmd/benchguard -write BENCH_BASELINE.json
//
// Benchmark names are normalized by stripping the trailing -GOMAXPROCS
// suffix, so a baseline recorded on an 8-core machine matches a 4-core CI
// runner. Only benchmarks present in both the baseline and the run are
// compared; baseline entries missing from the piped run are skipped, never
// failed, and counted in one summary line, so partial runs (e.g. a
// kernel-only bench while the baseline also pins the federation benchmark)
// stay usable — only zero overlap errors. The default threshold
// (25%) absorbs ordinary runner noise — raise -max-regress if a shared
// runner proves noisier.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Baseline is the committed reference file format.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note string `json:"note"`
	// Benchmarks maps normalized benchmark names to reference numbers.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one benchmark's reference measurement. EventsPerSec and
// PeakRSSMB are present only for benchmarks that report those metrics;
// ns/op is always recorded.
type Entry struct {
	NsPerOp      float64 `json:"nsPerOp"`
	EventsPerSec float64 `json:"eventsPerSec,omitempty"`
	PeakRSSMB    float64 `json:"peakRSSMB,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	var (
		baselinePath  = fs.String("baseline", "", "baseline JSON to compare against")
		writePath     = fs.String("write", "", "write a new baseline JSON from the bench output and exit")
		maxRegress    = fs.Float64("max-regress", 0.25, "maximum allowed ns/op regression fraction")
		maxRSSRegress = fs.Float64("max-rss-regress", 0.25, "maximum allowed peak-RSS regression fraction")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	measured, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}
	if *writePath != "" {
		return writeBaseline(*writePath, measured, out)
	}
	if *baselinePath == "" {
		return fmt.Errorf("need -baseline to compare (or -write to record)")
	}
	return compare(*baselinePath, measured, *maxRegress, *maxRSSRegress, out)
}

// benchLine matches `BenchmarkName[-P]  <iters>  <ns> ns/op ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// metricField matches one `<value> <unit>` column of a bench line.
var metricField = regexp.MustCompile(`([0-9.eE+]+) (events/sec|peakRSS-MB)`)

// parseBench extracts normalized benchmark names and measurements from
// `go test -bench` output. Repeated lines for the same benchmark
// (`-count=N`) keep the one with minimum ns/op — best-of-N is the standard
// way to cancel scheduler and host-load noise, since a benchmark can only
// run artificially slow, never artificially fast. The custom metric columns
// (events/sec, peakRSS-MB) are taken from that same winning line.
func parseBench(in io.Reader) (map[string]Entry, error) {
	measured := map[string]Entry{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		if prev, ok := measured[m[1]]; ok && prev.NsPerOp <= ns {
			continue
		}
		e := Entry{NsPerOp: ns}
		for _, f := range metricField.FindAllStringSubmatch(line, -1) {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", line, err)
			}
			switch f[2] {
			case "events/sec":
				e.EventsPerSec = v
			case "peakRSS-MB":
				e.PeakRSSMB = v
			}
		}
		measured[m[1]] = e
	}
	return measured, sc.Err()
}

func writeBaseline(path string, measured map[string]Entry, out io.Writer) error {
	b := Baseline{
		Note:       "re-baseline: go test . -run=NONE -bench='BenchmarkKernelThroughput|BenchmarkFederationMultiSite|BenchmarkGamingMillionSessions|BenchmarkBankingMillionTransactions|BenchmarkBankingGenerateWorkload|BenchmarkBankingConfigure|BenchmarkDatacenterCell' -benchtime=0.5s -count=3 (plus go test ./internal/social -bench=BenchmarkSocialMillionUsers -benchtime=1x) | go run ./cmd/benchguard -write BENCH_BASELINE.json",
		Benchmarks: measured,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "benchguard: wrote %d benchmarks to %s\n", len(measured), path)
	return nil
}

func compare(path string, measured map[string]Entry, maxRegress, maxRSSRegress float64, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	compared, failed, missing := 0, 0, 0
	for _, name := range names {
		got, ok := measured[name]
		if !ok {
			// A baseline entry absent from the piped run is never a
			// failure: partial runs (a kernel-only bench while the
			// baseline also pins the federation benchmark) are a normal
			// way to use the guard, so they are counted once below. Only
			// zero overlap is an error.
			missing++
			continue
		}
		compared++
		ref := base.Benchmarks[name]
		delta := (got.NsPerOp - ref.NsPerOp) / ref.NsPerOp
		status := "ok"
		if delta > maxRegress {
			status = "FAIL"
			failed++
		}
		rss := ""
		if ref.PeakRSSMB > 0 && got.PeakRSSMB > 0 {
			rssDelta := (got.PeakRSSMB - ref.PeakRSSMB) / ref.PeakRSSMB
			rss = fmt.Sprintf("  rss %.1f MB baseline %.1f (%+.1f%%)", got.PeakRSSMB, ref.PeakRSSMB, rssDelta*100)
			if rssDelta > maxRSSRegress {
				status = "FAIL"
				failed++
				rss += " RSS-REGRESSED"
			}
		}
		fmt.Fprintf(out, "%-4s  %-45s %10.1f ns/op  baseline %10.1f  (%+.1f%%)%s\n",
			status, name, got.NsPerOp, ref.NsPerOp, delta*100, rss)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmark overlaps the baseline (names drifted?)")
	}
	if missing > 0 {
		fmt.Fprintf(out, "benchguard: %d of %d baseline benchmark(s) compared, %d missing from this run\n",
			compared, len(names), missing)
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than the allowed threshold (%.0f%% ns/op, %.0f%% peak-RSS) over %s",
			failed, maxRegress*100, maxRSSRegress*100, path)
	}
	return nil
}
