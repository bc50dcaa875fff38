package scenario_test

// The determinism contract (paper P8, C15–C19): every golden document
// reproduces its committed result bytes in every execution mode that can
// reach it. Pool size, fleet shape, transport, checkpoint state, attached
// observers and trace replay are wall-clock and plumbing knobs, never
// semantics knobs. TestGoldenDocsByteIdentical is the plain mode;
// TestDeterminismContract runs each document through the other modes and
// checks that the corpus reaches every kind and capability.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"mcs/internal/dist"
	"mcs/internal/obs"
	"mcs/internal/scenario"
	"mcs/internal/trace"
)

// TestMain doubles as the worker child of the stdio fleet: re-executing
// the test binary with MCS_DIST_HELPER=worker turns it into a protocol
// worker, the role `mcsim -worker` plays in production.
func TestMain(m *testing.M) {
	if os.Getenv("MCS_DIST_HELPER") == "worker" {
		if err := dist.ServeStdio(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "helper worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// encodeResult reproduces cmd/mcsim's output encoding (indented JSON plus a
// trailing newline), the format the golden captures were taken in.
func encodeResult(t *testing.T, res *scenario.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// golden is one corpus entry: its document, its header and its pinned
// result bytes.
type golden struct {
	name string
	doc  json.RawMessage
	env  scenario.Common
	want []byte
}

// loadGoldens reads the golden corpus in name order: the captured per-kind
// documents under testdata/golden, and every document under examples/,
// named by its path there with "/" as "-" and ".json" dropped
// (examples/paper/d1-autoscalers.json is paper-d1-autoscalers). Either way
// the result is pinned as testdata/golden/<name>.result.json.
func loadGoldens(t testing.TB) []golden {
	t.Helper()
	paths := map[string]string{}
	captured, err := filepath.Glob(filepath.Join("testdata", "golden", "*.doc.json"))
	if err != nil || len(captured) == 0 {
		t.Fatalf("no captured golden documents: %v", err)
	}
	for _, p := range captured {
		paths[strings.TrimSuffix(filepath.Base(p), ".doc.json")] = p
	}
	examples := filepath.Join("..", "..", "examples")
	err = filepath.WalkDir(examples, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".json" {
			return err
		}
		rel, err := filepath.Rel(examples, p)
		name := strings.ReplaceAll(filepath.ToSlash(strings.TrimSuffix(rel, ".json")), "/", "-")
		if prev, ok := paths[name]; ok {
			return fmt.Errorf("golden name %s is taken by both %s and %s", name, prev, p)
		}
		paths[name] = p
		return err
	})
	if err != nil || len(paths) == len(captured) {
		t.Fatalf("examples/ golden documents missing: %v", err)
	}
	var gs []golden
	for _, name := range slices.Sorted(maps.Keys(paths)) {
		doc, err := os.ReadFile(paths[name])
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".result.json"))
		if err != nil {
			t.Fatal(err)
		}
		env, err := scenario.ParseCommon(doc)
		if err != nil {
			t.Fatalf("%s: %v", paths[name], err)
		}
		gs = append(gs, golden{name, doc, env, want})
	}
	return gs
}

// check fails unless got is the pinned result.
func (g golden) check(t *testing.T, got []byte) {
	t.Helper()
	if !bytes.Equal(got, g.want) {
		t.Errorf("result bytes of %s moved:\n--- golden ---\n%s\n--- now ---\n%s", g.name, g.want, got)
	}
}

// with returns doc with one top-level field set to value.
func with(doc json.RawMessage, key string, value any) json.RawMessage {
	var fields map[string]json.RawMessage
	_ = json.Unmarshal(doc, &fields) // every document is an object; nil panics below
	fields[key], _ = json.Marshal(value)
	out, _ := json.Marshal(fields)
	return out
}

// TestGoldenDocsByteIdentical is the contract's plain mode: every golden
// document parses under Strict (a misspelled field would otherwise fall
// back to its default silently) and reproduces its committed capture.
func TestGoldenDocsByteIdentical(t *testing.T) {
	for _, g := range loadGoldens(t) {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			if err := scenario.Strict(g.doc); err != nil {
				t.Fatal(err)
			}
			g.check(t, runDocBytes(t, string(g.doc)))
		})
	}
}

// contractModes are the execution modes beyond plain: each names the
// documents it reaches and the check it runs on each.
var contractModes = []struct {
	name    string
	applies func(golden) bool
	run     func(*testing.T, golden)
}{
	{"observed", func(golden) bool { return true }, checkObserved},
	{"pool", func(g golden) bool { return acceptsParallel(g.env.Kind) }, checkPoolSizes},
	{"trace", func(g golden) bool { return isProvider(g.env.Kind) }, checkTraceReplay},
	{"dist", isSweep, checkFleets},
	{"resume", isSweep, checkResume},
}

func TestDeterminismContract(t *testing.T) {
	goldens := loadGoldens(t)
	t.Run("coverage", func(t *testing.T) { checkCoverage(t, goldens) })
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			for _, m := range contractModes {
				if m.applies(g) {
					t.Run(m.name, func(t *testing.T) { m.run(t, g) })
				}
			}
		})
	}
}

// checkCoverage keeps the corpus total: every registered kind has a golden
// document, every WorkloadProvider kind a trace case, and every kind that
// accepts "parallel" a pool-size case.
func checkCoverage(t *testing.T, goldens []golden) {
	reached := map[string]bool{}
	for _, g := range goldens {
		for _, m := range contractModes {
			reached[m.name+" "+g.env.Kind] = reached[m.name+" "+g.env.Kind] || m.applies(g)
		}
	}
	for _, kind := range scenario.List() {
		if strings.HasPrefix(kind, "test-") {
			continue // fixtures registered by the registry unit tests
		}
		for mode, needed := range map[string]bool{"observed": true, "trace": isProvider(kind), "pool": acceptsParallel(kind)} {
			if needed && !reached[mode+" "+kind] {
				t.Errorf("kind %q has no %s case: add a golden document of that kind", kind, mode)
			}
		}
	}
}

func isSweep(g golden) bool { return g.env.Kind == "sweep" }

func isProvider(kind string) bool {
	factory, ok := scenario.Lookup(kind)
	if !ok {
		return false
	}
	_, ok = factory().(scenario.WorkloadProvider)
	return ok
}

// acceptsParallel reports whether kind configures its own example document
// with a pool size set; kinds without a shard axis reject the field.
func acceptsParallel(kind string) bool {
	factory, ok := scenario.Lookup(kind)
	if !ok {
		return false
	}
	ex, ok := factory().(scenario.Exampler)
	if !ok {
		return false
	}
	_, err := scenario.New(kind, with(json.RawMessage(ex.Example()), "parallel", 2))
	return err == nil
}

// checkObserved runs the document on an instrumented kernel with a
// heartbeat feeding a progress sink and the telemetry block attached: the
// envelope minus that block must be the pinned result, and the block and
// the event stream must be there.
func checkObserved(t *testing.T, g golden) {
	s, err := scenario.New(g.env.Kind, g.doc)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	sink := obs.NewNDJSON(&stream)
	const every = 1024
	st := &obs.KernelStats{HeartbeatEvery: every, OnHeartbeat: func(n uint64, now time.Duration) {
		sink.Emit(obs.Event{Type: obs.Heartbeat, Cell: -1, Events: n, SimMS: now.Milliseconds()})
	}}
	sink.Emit(obs.Event{Type: obs.RunStarted, Cell: -1, Msg: g.env.Kind})
	res, err := scenario.RunScenarioObserved(s, g.env.Seed, st)
	if err != nil {
		t.Fatal(err)
	}
	sink.Emit(obs.Event{Type: obs.RunFinished, Cell: -1, Events: res.Events})
	snap := st.Snapshot()
	res.Telemetry = &snap
	got := encodeResult(t, res)

	// A decode failure leaves a map short, which the comparison reports.
	var observed, plain map[string]json.RawMessage
	_ = json.Unmarshal(got, &observed)
	_ = json.Unmarshal(g.want, &plain)
	tel := observed["telemetry"]
	delete(observed, "telemetry")
	if len(tel) == 0 || !maps.EqualFunc(observed, plain, func(a, b json.RawMessage) bool { return bytes.Equal(a, b) }) {
		t.Errorf("telemetry is not strictly additive:\n--- golden ---\n%s\n--- observed ---\n%s", g.want, got)
	}
	beats := bytes.Count(stream.Bytes(), []byte(`"type":"heartbeat"`))
	if lines := bytes.Count(stream.Bytes(), []byte("\n")); lines != beats+2 || uint64(beats) != snap.Dispatched()/every {
		t.Errorf("progress stream has %d lines and %d heartbeats; want run-started, run-finished and %d heartbeats",
			lines, beats, snap.Dispatched()/every)
	}
}

// checkPoolSizes runs the document at intra-run pool sizes 1, 2 and 8,
// less the size the document sets itself: the plain mode pins that one.
func checkPoolSizes(t *testing.T, g golden) {
	for _, parallel := range []int{1, 2, 8} {
		if parallel != g.env.Parallel {
			t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
				g.check(t, runDocBytes(t, string(with(g.doc, "parallel", parallel))))
			})
		}
	}
}

// checkTraceReplay exports the document's workload in the mcw format and
// replays the export in place of the synthetic (or original trace) source.
func checkTraceReplay(t *testing.T, g golden) {
	s, err := scenario.New(g.env.Kind, g.doc)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.(scenario.WorkloadProvider).SourceWorkload()
	if err != nil || len(w.Jobs) == 0 {
		t.Fatalf("no workload to export (%v)", err)
	}
	path := filepath.Join(t.TempDir(), "export.mcw")
	if err := trace.WriteFile(path, trace.FormatMCW, w); err != nil {
		t.Fatal(err)
	}
	replay := with(g.doc, "workload", trace.Ref{Trace: path, Format: trace.FormatMCW})
	g.check(t, runDocBytes(t, string(replay)))
}

// runCampaign runs the sweep document through a coordinator, checks the
// report against the pinned result, and returns the number of
// cell-finished events on the campaign's progress stream.
func runCampaign(t *testing.T, g golden, fleet []dist.Worker, opts dist.Options) int {
	t.Helper()
	var stream bytes.Buffer
	opts.Events = obs.NewNDJSON(&stream)
	coord, err := dist.NewCoordinator(fleet, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, fails, err := coord.Run(context.Background(), g.doc)
	if err != nil || len(fails) != 0 {
		t.Fatalf("campaign failed: %v %+v", err, fails)
	}
	g.check(t, encodeResult(t, res))
	return bytes.Count(stream.Bytes(), []byte(`"type":"cell-finished"`))
}

// checkFleets runs the campaign over in-process, subprocess (stdio) and
// loopback HTTP workers, at the heuristic shard size and at one cell per
// unit (checkResume runs one in-process worker at one cell per unit).
// Every cell must finish once on the progress stream.
func checkFleets(t *testing.T, g golden) {
	var pinned scenario.Result
	if err := json.Unmarshal(g.want, &pinned); err != nil {
		t.Fatal(err)
	}
	cells := len(pinned.Cells)
	for name, f := range map[string]struct {
		shard int
		start func(*testing.T) []dist.Worker
	}{
		"local/shard=auto": {0, func(*testing.T) []dist.Worker { return []dist.Worker{&dist.Local{ID: 0}, &dist.Local{ID: 1}} }},
		"stdio/shard=auto": {0, stdioFleet},
		"http/shard=1":     {1, httpFleet},
	} {
		t.Run(name, func(t *testing.T) {
			if n := runCampaign(t, g, f.start(t), dist.Options{ShardSize: f.shard}); n != cells {
				t.Errorf("progress stream finished %d cells, report has %d", n, cells)
			}
		})
	}
}

// stdioFleet starts two re-executions of this test binary as pipe workers.
func stdioFleet(t *testing.T) []dist.Worker {
	var fleet []dist.Worker
	for range 2 {
		w, err := dist.StartSubprocess([]string{os.Args[0]}, "MCS_DIST_HELPER=worker")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		fleet = append(fleet, w)
	}
	return fleet
}

// httpFleet starts two worker daemons on loopback.
func httpFleet(t *testing.T) []dist.Worker {
	var fleet []dist.Worker
	for range 2 {
		srv := httptest.NewServer(dist.NewServer().Handler())
		t.Cleanup(srv.Close)
		fleet = append(fleet, &dist.HTTP{Base: srv.URL, Client: srv.Client()})
	}
	return fleet
}

// cellCache is a worker that runs each cell once and replays the recorded
// result afterwards, so a resumed campaign costs no simulation.
type cellCache map[int]dist.CellResult

func (c cellCache) Name() string { return "cache" }
func (c cellCache) Close() error { return nil }
func (c cellCache) Run(_ context.Context, unit dist.WorkUnit, emit func(dist.CellResult)) error {
	for _, cell := range unit.Cells {
		if _, ok := c[cell.Index]; !ok {
			c[cell.Index] = dist.RunCell(cell)
		}
		emit(c[cell.Index])
	}
	return nil
}

// checkResume writes the campaign's checkpoint, then resumes from it cut
// at every record boundary and once mid-record — a deterministic stand-in
// for a coordinator killed at any moment. Each resume must reproduce the
// pinned report and re-run exactly the cells the cut checkpoint lacks.
func checkResume(t *testing.T, g golden) {
	full := filepath.Join(t.TempDir(), "full.ckpt")
	cache := cellCache{}
	runCampaign(t, g, []dist.Worker{cache}, dist.Options{ShardSize: 1, Checkpoint: full})
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	cells := len(cache)
	if len(lines) != cells+2 { // a header, one record per cell, an empty tail
		t.Fatalf("checkpoint has %d lines, want a header and %d records", len(lines)-1, cells)
	}
	resume := func(t *testing.T, prefix []byte, kept int) {
		path := filepath.Join(t.TempDir(), "cut.ckpt")
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		if n := runCampaign(t, g, []dist.Worker{cache}, dist.Options{ShardSize: 1, Checkpoint: path}); n != cells-kept {
			t.Errorf("resume from %d of %d records re-ran %d cells, want %d", kept, cells, n, cells-kept)
		}
	}
	for kept := 0; kept <= cells; kept++ {
		t.Run(fmt.Sprintf("records=%d", kept), func(t *testing.T) { resume(t, bytes.Join(lines[:kept+1], nil), kept) })
	}
	t.Run("mid-record", func(t *testing.T) {
		torn := lines[cells]
		resume(t, append(bytes.Join(lines[:cells], nil), torn[:len(torn)/2]...), cells-1)
	})
}
