package main

// The driving process: run iterations in child processes for the run's
// time, check them, aggregate medians, and print the result.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// programGOMAXPROCS is the GOMAXPROCS every child runs with, so the
// program under test keeps at most one core busy.
const programGOMAXPROCS = 1

// Iteration floors: a run always measures at least this many iterations,
// even when --seconds is shorter than that takes.
const (
	minPlain  = 3
	minTraced = 2
	// tracedPlain untraced iterations precede a traced run's traced ones,
	// as the base of bench.trace_overhead_s.
	tracedPlain = 2
)

// childTimeout bounds one iteration; a hung child is killed.
const childTimeout = 150 * time.Second

// stateDir holds what runs leave behind, relative to the repository root.
const stateDir = ".bench_build"

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark checks its output
// against.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostRecord describes the machine a result set was measured on.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
}

// resultSet is what --out writes and --compare reads.
type resultSet struct {
	Host     hostRecord `json:"host"`
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  int        `json:"seconds"`
	Trace    int        `json:"trace"`
	Result   result     `json:"result"`
	Samples  []sample   `json:"samples"`
}

func runBench(name string, seed int64, seconds, trace int, out string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	doc := w.doc(seed)

	budget := time.Duration(seconds) * time.Second
	began := time.Now()
	var durations []float64
	// more reports whether another iteration fits the run's time.
	more := func(done, floor int) bool {
		if done < floor {
			return true
		}
		return time.Since(began).Seconds()+median(durations) <= budget.Seconds()
	}
	iterate := func(traced bool) (sample, error) {
		t := time.Now()
		s, err := runIteration(exe, name, doc, traced)
		durations = append(durations, time.Since(t).Seconds())
		return s, err
	}

	// An untraced run measures plain iterations for its whole time; a
	// traced run measures tracedPlain of them first, then traced ones.
	var plain, traced []sample
	for (trace == 0 && more(len(plain), minPlain)) || (trace == 1 && len(plain) < tracedPlain) {
		s, err := iterate(false)
		if err != nil {
			return err
		}
		plain = append(plain, s)
	}
	for trace == 1 && more(len(traced), minTraced) {
		s, err := iterate(true)
		if err != nil {
			return err
		}
		traced = append(traced, s)
	}
	all := append(append([]sample(nil), plain...), traced...)

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, s := range all {
		items := max(s.Expected, 1)
		res.Attempted += items
		if s.Err != "" {
			res.Failed += items
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, s.Err)
		}
	}
	if err := checkDigests(exe, name, seed, all); err != nil {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
	}

	var declared []metricSpec
	if trace == 0 {
		declared = spec.EndToEnd
		res.Metrics["wall_s"] = metricValue{medianOf(plain, func(s sample) float64 { return s.WallS }), "s"}
		res.Metrics["items_per_s"] = metricValue{medianOf(plain, func(s sample) float64 { return float64(s.Completed) / s.WallS }), "1/s"}
		res.Metrics["setup_s"] = metricValue{medianOf(plain, func(s sample) float64 { return s.SetupS }), "s"}
		res.Metrics["peak_rss_mb"] = metricValue{medianOf(plain, func(s sample) float64 { return s.PeakRSSMB }), "MB"}
	} else {
		declared = spec.PerLayer
		for _, m := range spec.PerLayer {
			res.Metrics[m.Name] = metricValue{medianOf(traced, func(s sample) float64 { return s.Layer[m.Name] }), m.Unit}
		}
		overhead := medianOf(traced, func(s sample) float64 { return s.WallS }) - medianOf(plain, func(s sample) float64 { return s.WallS })
		res.Metrics["bench.trace_overhead_s"] = metricValue{overhead, "s"}
	}
	if err := checkDeclared(res.Metrics, declared); err != nil {
		return err
	}

	host := currentHost()
	if out != "" {
		set := resultSet{Host: host, Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Result: res, Samples: all}
		if err := writeJSON(out, set); err != nil {
			return err
		}
	}
	hostLine, err := json.Marshal(map[string]hostRecord{"host": host})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", hostLine, line)
	if !res.Correct {
		return errors.New("correctness check failed")
	}
	return nil
}

// runIteration runs one iteration of the workload in a child process.
func runIteration(exe, name string, doc []byte, traced bool) (sample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-role", "child", "-workload", name, "-trace", traceArg)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(programGOMAXPROCS))
	cmd.Stdin = bytes.NewReader(doc)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("%s iteration: %w", name, err)
	}
	var s sample
	if err := json.Unmarshal(out, &s); err != nil {
		return sample{}, fmt.Errorf("%s iteration: bad sample %q: %w", name, out, err)
	}
	return s, nil
}

// checkDigests requires every iteration's report to hash the same, and
// the same as any earlier run of this binary on this workload and seed.
func checkDigests(exe, name string, seed int64, all []sample) error {
	var want string
	for _, s := range all {
		if s.Err != "" {
			continue
		}
		if want == "" {
			want = s.Digest
		} else if s.Digest != want {
			return fmt.Errorf("report digest %s differs from %s within one run", s.Digest, want)
		}
	}
	if want == "" {
		return nil
	}
	binary, err := fileDigest(exe)
	if err != nil {
		return err
	}
	path := filepath.Join(stateDir, "digests", fmt.Sprintf("%s-%s-%d", binary[:16], name, seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if got := strings.TrimSpace(string(prev)); got != want {
			return fmt.Errorf("report digest %s differs from %s recorded by an earlier run (%s)", want, got, path)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(want+"\n"), 0o644)
	default:
		return err
	}
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func loadSpec() (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return spec, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// checkDeclared requires the printed metrics to be exactly the declared
// ones, with the declared units.
func checkDeclared(got map[string]metricValue, declared []metricSpec) error {
	if len(got) != len(declared) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json declares %d", len(got), len(declared))
	}
	for _, m := range declared {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json is not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
		}
	}
	return nil
}

func medianOf(samples []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return median(xs)
}

func currentHost() hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: programGOMAXPROCS,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// compareResultSets prints the change of every metric from result set A to
// result set B. It refuses sets measured on different hosts, or of
// different workloads or modes, rather than mislead.
func compareResultSets(arg string) error {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		return fmt.Errorf("--compare takes two files A,B")
	}
	var sets [2]resultSet
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := sets[0], sets[1]
	if a.Host != b.Host {
		return fmt.Errorf("refusing to compare: host records differ\n  A: %+v\n  B: %+v", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace %d) with %s (trace %d)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	fmt.Printf("%s, trace %d: A seed %d, B seed %d\n", a.Workload, a.Trace, a.Seed, b.Seed)
	for _, m := range sortedKeys(a.Result.Metrics) {
		va := a.Result.Metrics[m]
		vb, ok := b.Result.Metrics[m]
		if !ok {
			fmt.Printf("  %-34s %14.6g %-6s  (absent in B)\n", m, va.Value, va.Unit)
			continue
		}
		change := "n/a"
		if va.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(vb.Value-va.Value)/va.Value)
		}
		fmt.Printf("  %-34s %14.6g %14.6g %-6s %s\n", m, va.Value, vb.Value, va.Unit, change)
	}
	return nil
}

// runSelfcheck runs every workload once on seed and once on a second seed
// derived from it: each report must pass its checks, and the two seeds
// must give different reports, so the seed demonstrably reaches the
// program.
func runSelfcheck(seed int64) error {
	second := seed + 1000003
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		digests := map[int64]string{}
		for _, sd := range []int64{seed, second} {
			s, err := runIteration(exe, w.name, w.doc(sd), false)
			if err == nil && s.Err != "" {
				err = errors.New(s.Err)
			}
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d: %v", w.name, sd, err))
				continue
			}
			digests[sd] = s.Digest
			fmt.Printf("%-9s seed %-8d ok  %d × %s in %.3fs (set-up %.3gs, peak %.0f MB) report %s\n",
				w.name, sd, s.Completed, w.item, s.WallS, s.SetupS, s.PeakRSSMB, s.Digest[:16])
		}
		if len(digests) == 2 && digests[seed] == digests[second] {
			failed = append(failed, fmt.Sprintf("%s: seeds %d and %d gave the same report", w.name, seed, second))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("self-check failed:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
