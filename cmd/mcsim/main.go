// Command mcsim runs simulation scenarios described in JSON through the
// scenario registry — one runner for every ecosystem the toolkit models
// (paper §5.3 C15–C16: reproducible simulation-based experimentation across
// workload domains).
//
// Usage:
//
//	mcsim -scenario scenario.json              # run a scenario document
//	mcsim -list                                # enumerate registered scenario kinds
//	mcsim -example [-kind faas]                # print an example document and exit
//	mcsim -scenario base.json -sweep grid.json # sweep base over a parameter grid
//	mcsim -scenario s.json -export-trace w.mcw # export the executed workload
//	mcsim -scenario s.json -export-csv out/    # per-cell CSVs for figure pipelines
//	mcsim -scenario b.json -sweep g.json -distributed -workers 4   # subprocess fleet
//	mcsim -scenario b.json -sweep g.json -distributed \
//	      -connect http://h1:9137,http://h2:9137 -resume run.ckpt  # remote fleet
//	mcsim -worker                              # serve cells on stdin/stdout
//	mcsim -scenario s.json -telemetry          # attach kernel dispatch counters
//	mcsim -scenario b.json -sweep g.json -distributed \
//	      -progress run.ndjson -progress-listen :9138   # typed progress events
//	mcsim -watch http://host:9138              # live campaign view from elsewhere
//
// A scenario document is a JSON object whose "kind" field selects the
// registered scenario ("datacenter", "faas", "gaming", "banking", "graph",
// "federation", "autoscale", "social", "sweep", ...); a missing kind
// defaults to "datacenter" for backward compatibility with pre-registry
// documents (the default is noted on stderr), while an unknown kind is an
// error. The "seed" field drives the deterministic kernel: same document,
// same seed, byte-identical result JSON.
//
// The -sweep flag is a convenience wrapper over the "sweep" meta-scenario:
// it takes a grid file (a JSON object mapping JSON-pointer-style paths to
// value lists, e.g. {"/machines": [8, 16]}), composes it with the -scenario
// document as the base, and runs the cross product — per-cell derived
// seeds, -parallel workers, one combined report.
//
// -distributed routes a sweep through the internal/dist coordinator
// instead of the in-process worker pool: cells shard across -workers local
// subprocesses (each a `mcsim -worker` re-execution of this binary), or
// across the remote HTTP workers listed in -connect. The combined report
// is byte-identical to the in-process sweep at any fleet shape; -shard
// caps cells per work unit, and -resume names a checkpoint file so an
// interrupted campaign restarts without recomputing finished cells.
//
// Observability rides every mode without touching result bytes: -progress
// serializes typed obs.Event lines (NDJSON) to a file or stderr ("-"),
// -progress-listen serves the same stream live at GET /progress (chunked
// NDJSON, history replay for late subscribers), -watch renders any such
// stream as a live progress view, and -telemetry attaches the kernel's
// per-path dispatch counters to a plain run's result envelope as the
// optional "telemetry" block. Same seed still means byte-identical output:
// the telemetry block only appears when asked for, and progress events are
// a parallel channel, never part of the report.
//
// -export-trace writes the workload the run executed (trace-capable kinds
// only) through the trace format registry; the format resolves like
// everywhere else — explicit -trace-format, else the file extension, else
// gwf. Export to .mcw (the exact native format) and feeding the file back
// through the document's workload.trace field replays the run to a
// byte-identical result. -export-csv writes one cell,metric,value CSV per
// sweep cell, in grid order, into the given directory (a plain run writes
// a single cell).
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mcs/internal/dist"
	"mcs/internal/obs"
	"mcs/internal/scenario"
	"mcs/internal/trace"

	// Ecosystem packages register their scenarios on import.
	_ "mcs/internal/autoscale"
	_ "mcs/internal/banking"
	_ "mcs/internal/faas"
	_ "mcs/internal/federation"
	_ "mcs/internal/gaming"
	_ "mcs/internal/graphproc"
	_ "mcs/internal/opendc"
	_ "mcs/internal/social"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mcsim:", err)
		os.Exit(1)
	}
}

// run executes the CLI: cells arrive on stdin in -worker mode, results go
// to out, progress chatter to status.
func run(args []string, stdin io.Reader, out, status io.Writer) error {
	fs := flag.NewFlagSet("mcsim", flag.ContinueOnError)
	var (
		scenarioPath = fs.String("scenario", "", "path to scenario JSON")
		kind         = fs.String("kind", "", "scenario kind for -example (default datacenter)")
		list         = fs.Bool("list", false, "list registered scenario kinds and exit")
		example      = fs.Bool("example", false, "print an example scenario and exit")
		sweepPath    = fs.String("sweep", "", "path to a parameter-grid JSON; sweeps the -scenario document over it")
		parallel     = fs.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS)")
		exportTrace  = fs.String("export-trace", "", "write the executed workload to this trace file")
		traceFormat  = fs.String("trace-format", "", "trace format for -export-trace (default: by extension, else gwf; use .mcw or -trace-format mcw for exact replay)")
		exportCSV    = fs.String("export-csv", "", "write one CSV per result cell into this directory")
		worker       = fs.Bool("worker", false, "run as a sweep worker: serve cells on stdin/stdout (HTTP workers: cmd/mcsweepd)")
		distributed  = fs.Bool("distributed", false, "run the sweep through the distributed coordinator")
		workers      = fs.Int("workers", 2, "with -distributed: number of local subprocess workers")
		connect      = fs.String("connect", "", "with -distributed: comma-separated worker URLs (replaces subprocess workers)")
		resume       = fs.String("resume", "", "with -distributed: checkpoint file; completed cells load from it and new ones append")
		shard        = fs.Int("shard", 0, "with -distributed: max cells per work unit (0 = heuristic)")
		progress     = fs.String("progress", "", "write NDJSON progress events to this file (\"-\" = stderr)")
		progressAddr = fs.String("progress-listen", "", "serve the live progress stream on this address at GET /progress")
		watch        = fs.String("watch", "", "render a live progress view from this URL and exit (no scenario runs)")
		telemetry    = fs.Bool("telemetry", false, "attach kernel dispatch telemetry to the result (plain runs only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *watch != "" {
		return watchProgress(*watch, out)
	}
	if *worker {
		return dist.ServeStdio(stdin, out)
	}
	if *list {
		for _, name := range scenario.List() {
			fmt.Fprintln(out, name)
		}
		return nil
	}
	if *example {
		name := *kind
		if name == "" {
			name = scenario.DefaultKind
		}
		ex, ok := scenario.Example(name)
		if !ok {
			return fmt.Errorf("no example for kind %q (registered: %v)", name, scenario.List())
		}
		fmt.Fprintln(out, ex)
		return nil
	}
	if *scenarioPath == "" {
		return fmt.Errorf("missing -scenario (use -example for the format, -list for kinds)")
	}
	raw, err := os.ReadFile(*scenarioPath)
	if err != nil {
		return err
	}
	if err := checkKind(raw, status); err != nil {
		return err
	}
	if *sweepPath != "" {
		if raw, err = composeSweep(raw, *sweepPath, *parallel); err != nil {
			return err
		}
	}
	prog, closeProgress, err := openProgress(*progress, *progressAddr, status)
	if err != nil {
		return err
	}
	defer closeProgress()
	if *distributed {
		if *exportTrace != "" {
			// Workloads materialize inside the workers; there is no
			// coordinator-side instance to export.
			return fmt.Errorf("-export-trace is not supported with -distributed (export from a plain -scenario run instead)")
		}
		if *telemetry {
			return fmt.Errorf("-telemetry instruments a single local kernel; it is not supported with -distributed")
		}
		return runDistributed(raw, *workers, *connect, *resume, *shard, *exportCSV, prog, out, status)
	}
	env, err := scenario.ParseCommon(raw)
	if err != nil {
		return err
	}
	if *telemetry && (env.Kind == "sweep" || *sweepPath != "") {
		return fmt.Errorf("-telemetry instruments a single kernel; sweeps run one kernel per cell (use it on a plain -scenario run)")
	}
	s, err := scenario.New(env.Kind, raw)
	if err != nil {
		return err
	}
	// Check trace capability before the run, which may take hours: the
	// workload is materialized at Configure, so the capability (and the
	// export itself) never depends on having run.
	var wp scenario.WorkloadProvider
	if *exportTrace != "" {
		var ok bool
		if wp, ok = s.(scenario.WorkloadProvider); !ok {
			return fmt.Errorf("scenario %q does not expose a workload trace (trace-capable kinds only)", env.Kind)
		}
	}
	// Instrument the kernel when anything observes the run. The stats
	// pointer stays nil otherwise, so an unobserved run pays nothing.
	var st *obs.KernelStats
	if *telemetry || prog != nil {
		st = &obs.KernelStats{}
		if prog != nil {
			st.HeartbeatEvery = 500_000
			st.OnHeartbeat = func(processed uint64, now time.Duration) {
				prog.Emit(obs.Event{Type: obs.Heartbeat, Cell: -1, Events: processed, SimMS: now.Milliseconds()})
			}
		}
	}
	if prog != nil {
		prog.Emit(obs.Event{Type: obs.RunStarted, Cell: -1, Msg: env.Kind})
	}
	res, err := scenario.RunScenarioObserved(s, env.Seed, st)
	if err != nil {
		return err
	}
	if prog != nil {
		prog.Emit(obs.Event{Type: obs.RunFinished, Cell: -1, Events: res.Events})
	}
	if *telemetry {
		snap := st.Snapshot()
		res.Telemetry = &snap
	}
	fmt.Fprintf(status, "mcsim: %s seed=%d: %d events in %v\n",
		res.Scenario, res.Seed, res.Events, res.WallClock.Round(res.WallClock/100+1))
	if wp != nil {
		w, err := wp.SourceWorkload()
		if err != nil {
			return err
		}
		if err := trace.WriteFile(*exportTrace, *traceFormat, w); err != nil {
			return err
		}
		fmt.Fprintf(status, "mcsim: exported %d jobs to %s\n", len(w.Jobs), *exportTrace)
	}
	if *exportCSV != "" {
		n, err := writeCellCSVs(*exportCSV, res)
		if err != nil {
			return err
		}
		fmt.Fprintf(status, "mcsim: wrote %d cell CSVs to %s\n", n, *exportCSV)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// writeCellCSVs writes one CSV per result cell into dir, named
// cell-0000.csv, cell-0001.csv, ... in deterministic grid order: a header
// row, then one cell,metric,value record per metric. A result without
// cells (a plain run) is written as its own single cell.
func writeCellCSVs(dir string, res *scenario.Result) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	cells := res.Cells
	if len(cells) == 0 {
		cells = []*scenario.Result{res}
	}
	for i, cell := range cells {
		key := cell.Labels["cell"]
		if key == "" {
			key = cell.Scenario
		}
		records := [][]string{{"cell", "metric", "value"}}
		for _, name := range cell.MetricNames() {
			records = append(records, []string{key, name, strconv.FormatFloat(cell.Metrics[name], 'g', -1, 64)})
		}
		file, err := os.Create(filepath.Join(dir, fmt.Sprintf("cell-%04d.csv", i)))
		if err != nil {
			return i, err
		}
		if err := csv.NewWriter(file).WriteAll(records); err != nil {
			file.Close()
			return i, err
		}
		if err := file.Close(); err != nil {
			return i, err
		}
	}
	return len(cells), nil
}

// checkKind vets the document's dispatch kind up front: an unknown kind is
// an error (with the -list hint), and the backward-compatible default for
// an absent kind is applied loudly, never silently.
func checkKind(raw json.RawMessage, status io.Writer) error {
	var probe struct {
		Kind *string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		// Not an object at all — let the envelope parser report it.
		return nil
	}
	if probe.Kind == nil || *probe.Kind == "" {
		fmt.Fprintf(status, "mcsim: document has no \"kind\"; defaulting to %q\n", scenario.DefaultKind)
		return nil
	}
	if _, ok := scenario.Lookup(*probe.Kind); !ok {
		return fmt.Errorf("unknown scenario kind %q (run mcsim -list for registered kinds)", *probe.Kind)
	}
	return nil
}

// runDistributed executes a sweep document through the internal/dist
// coordinator: remote HTTP workers when -connect lists URLs, otherwise
// local `mcsim -worker` subprocesses. The combined report goes to out
// exactly like the in-process path — byte-identical, by the coordinator's
// contract. Cells that failed permanently are recorded in the report and
// summarized as an error after the report is written.
func runDistributed(raw json.RawMessage, workers int, connect, resume string, shard int, exportCSV string, events obs.Sink, out, status io.Writer) error {
	env, err := scenario.ParseCommon(raw)
	if err != nil {
		return err
	}
	if env.Kind != "sweep" {
		return fmt.Errorf("-distributed runs sweep documents; kind %q is not a sweep (compose one with -sweep grid.json)", env.Kind)
	}
	var fleet []dist.Worker
	defer func() {
		for _, w := range fleet {
			w.Close()
		}
	}()
	if connect != "" {
		for _, url := range strings.Split(connect, ",") {
			url = strings.TrimSpace(url)
			if url == "" {
				continue
			}
			fleet = append(fleet, &dist.HTTP{Base: strings.TrimSuffix(url, "/")})
		}
		if len(fleet) == 0 {
			return fmt.Errorf("-connect lists no worker URLs")
		}
	} else {
		if workers < 1 {
			return fmt.Errorf("-workers must be at least 1")
		}
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		for i := 0; i < workers; i++ {
			w, err := dist.StartSubprocess([]string{exe, "-worker"})
			if err != nil {
				return err
			}
			fleet = append(fleet, w)
		}
	}
	coord, err := dist.NewCoordinator(fleet, dist.Options{
		ShardSize:  shard,
		Checkpoint: resume,
		Events:     obs.Multi(events, &obs.TextSink{W: status}),
		Heartbeat:  2 * time.Second,
	})
	if err != nil {
		return err
	}
	res, fails, err := coord.Run(context.Background(), raw)
	if err != nil {
		return err
	}
	fmt.Fprintf(status, "mcsim: %s seed=%d: %d events across %d workers in %v\n",
		res.Scenario, res.Seed, res.Events, len(fleet), res.WallClock.Round(res.WallClock/100+1))
	if exportCSV != "" {
		n, err := writeCellCSVs(exportCSV, res)
		if err != nil {
			return err
		}
		fmt.Fprintf(status, "mcsim: wrote %d cell CSVs to %s\n", n, exportCSV)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if len(fails) > 0 {
		return fmt.Errorf("%d of %d cells failed permanently (typed failure records are in the report)", len(fails), len(res.Cells))
	}
	return nil
}

// composeSweep wraps a base scenario document and a grid file into a "sweep"
// meta-scenario document, carrying the base's seed as the sweep seed.
func composeSweep(base json.RawMessage, gridPath string, parallel int) (json.RawMessage, error) {
	gridRaw, err := os.ReadFile(gridPath)
	if err != nil {
		return nil, err
	}
	var grid map[string][]json.RawMessage
	if err := json.Unmarshal(gridRaw, &grid); err != nil {
		return nil, fmt.Errorf("sweep grid %s: %w", gridPath, err)
	}
	env, err := scenario.ParseCommon(base)
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{
		"kind":     "sweep",
		"seed":     env.Seed,
		"base":     base,
		"grid":     grid,
		"parallel": parallel,
	})
}
