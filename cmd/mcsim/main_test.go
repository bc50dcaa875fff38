package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcs/internal/dist"
	"mcs/internal/scenario"
)

func TestListFlagEnumeratesRegistry(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, nil, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	listed := strings.Fields(out.String())
	if len(listed) < 9 {
		t.Fatalf("-list printed %d kinds, want >= 9: %q", len(listed), out.String())
	}
	for _, want := range []string{
		"datacenter", "faas", "gaming", "banking", "graph",
		"federation", "autoscale", "social", "sweep",
	} {
		found := false
		for _, kind := range listed {
			if kind == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("-list missing %q: %v", want, listed)
		}
	}
}

func TestExampleFlagPerKind(t *testing.T) {
	for _, kind := range scenario.List() {
		var out strings.Builder
		if err := run([]string{"-example", "-kind", kind}, nil, &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
			t.Fatalf("%s example is not valid JSON: %v", kind, err)
		}
		if doc["kind"] != kind {
			t.Errorf("%s example carries kind=%v", kind, doc["kind"])
		}
	}
	if err := run([]string{"-example", "-kind", "nope"}, nil, &strings.Builder{}, io.Discard); err == nil {
		t.Error("unknown -kind accepted")
	}
}

// TestExampleRoundTripEveryKind is the registry round-trip smoke CI runs:
// for every registered kind, `mcsim -example -kind K` must produce a
// document that `mcsim -scenario` runs successfully — an unregistered
// Exampler or a broken example doc fails here.
func TestExampleRoundTripEveryKind(t *testing.T) {
	for _, kind := range scenario.List() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			var doc strings.Builder
			if err := run([]string{"-example", "-kind", kind}, nil, &doc, io.Discard); err != nil {
				t.Fatalf("-example: %v", err)
			}
			path := filepath.Join(t.TempDir(), kind+".json")
			if err := os.WriteFile(path, []byte(doc.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := run([]string{"-scenario", path}, nil, &out, io.Discard); err != nil {
				t.Fatalf("round-trip run: %v", err)
			}
			var res scenario.Result
			if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
				t.Fatalf("bad result JSON: %v", err)
			}
			if res.Scenario != kind {
				t.Errorf("result scenario = %q, want %q", res.Scenario, kind)
			}
			if len(res.Metrics) == 0 {
				t.Error("no metrics")
			}
		})
	}
}

// TestSweepFlagComposesGrid drives the -sweep convenience path: a base
// document swept over a grid file.
func TestSweepFlagComposesGrid(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	grid := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(base, []byte(`{"kind": "banking", "transactions": 150, "seed": 9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(grid, []byte(`{"/discipline": ["edf", "fcfs"], "/instantShare": [0.1, 0.4]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-scenario", base, "-sweep", grid, "-parallel", "2"}, nil, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var res scenario.Result
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "sweep" || res.Seed != 9 {
		t.Errorf("envelope = %q/%d, want sweep/9", res.Scenario, res.Seed)
	}
	if len(res.Cells) != 4 {
		t.Errorf("got %d cells, want 4", len(res.Cells))
	}
	if res.Metrics["cells"] != 4 {
		t.Errorf("cells metric = %v", res.Metrics["cells"])
	}
}

// TestRunnerDispatchesEveryKind drives the full CLI path — document file in,
// result envelope out — for one small scenario per registered ecosystem.
func TestRunnerDispatchesEveryKind(t *testing.T) {
	docs := map[string]string{
		"datacenter": `{"kind": "datacenter", "machines": 4, "workload": {"jobs": 12}, "horizonSeconds": 7200, "seed": 1}`,
		"faas":       `{"kind": "faas", "invocations": 100, "meanGapSeconds": 1, "seed": 2}`,
		"gaming":     `{"kind": "gaming", "zones": 4, "zoneCapacity": 30, "arrivalPerHour": 200, "horizonHours": 3, "seed": 3}`,
		"banking":    `{"kind": "banking", "transactions": 200, "seed": 4}`,
		"graph":      `{"kind": "graph", "scale": 7, "edgeFactor": 4, "seed": 5}`,
		"federation": `{"kind": "federation", "sites": [{"name": "a", "machines": 2, "jobs": 30}, {"name": "b", "machines": 4}], "seed": 6}`,
		"autoscale":  `{"kind": "autoscale", "policy": "plan", "pattern": "flat", "horizonHours": 4, "seed": 7}`,
		"social":     `{"kind": "social", "jobs": 120, "users": 12, "seed": 8}`,
		"sweep":      `{"kind": "sweep", "seed": 9, "base": {"kind": "banking", "transactions": 100}, "grid": {"/discipline": ["edf", "fcfs"]}}`,
	}
	for kind, doc := range docs {
		path := filepath.Join(t.TempDir(), kind+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run([]string{"-scenario", path}, nil, &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var res scenario.Result
		if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
			t.Fatalf("%s: bad result JSON: %v", kind, err)
		}
		if res.Scenario != kind {
			t.Errorf("%s: result scenario = %q", kind, res.Scenario)
		}
		if len(res.Metrics) == 0 {
			t.Errorf("%s: no metrics", kind)
		}
	}
}

func TestExportTraceReplaysByteIdentical(t *testing.T) {
	// The CLI round trip behind the trace smoke job: run synthetic with
	// -export-trace, rerun from the export, diff result bytes.
	dir := t.TempDir()
	scenarioPath := filepath.Join(dir, "s.json")
	tracePath := filepath.Join(dir, "w.mcw")
	replayPath := filepath.Join(dir, "replay.json")
	if err := os.WriteFile(scenarioPath, []byte(`{
		"kind": "faas", "invocations": 300, "meanGapSeconds": 2,
		"keepWarm": 1, "seed": 7
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var synthetic strings.Builder
	if err := run([]string{"-scenario", scenarioPath, "-export-trace", tracePath}, nil, &synthetic, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(replayPath, []byte(fmt.Sprintf(`{
		"kind": "faas", "workload": {"trace": %q},
		"keepWarm": 1, "seed": 7
	}`, tracePath)), 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed strings.Builder
	if err := run([]string{"-scenario", replayPath}, nil, &replayed, io.Discard); err != nil {
		t.Fatal(err)
	}
	if synthetic.String() != replayed.String() {
		t.Errorf("replay differs from synthetic run:\n%s\nvs\n%s", synthetic.String(), replayed.String())
	}
}

func TestExportTraceRejectsNonCapableKind(t *testing.T) {
	dir := t.TempDir()
	scenarioPath := filepath.Join(dir, "s.json")
	// graph workloads are synthesized inside the harness from the kernel
	// RNG — the kind does not implement scenario.WorkloadProvider.
	if err := os.WriteFile(scenarioPath, []byte(`{"kind": "graph", "scale": 6, "edgeFactor": 4, "seed": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-scenario", scenarioPath, "-export-trace", filepath.Join(dir, "w.mcw")}, nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "does not expose a workload trace") {
		t.Errorf("err = %v, want trace-capability error", err)
	}
}

func TestExportCSVWritesCellsInGridOrder(t *testing.T) {
	dir := t.TempDir()
	scenarioPath := filepath.Join(dir, "s.json")
	csvDir := filepath.Join(dir, "cells")
	if err := os.WriteFile(scenarioPath, []byte(`{
		"kind": "sweep", "seed": 17,
		"base": {"kind": "banking", "transactions": 100},
		"grid": {"/discipline": ["edf", "fcfs"], "/instantShare": [0.1, 0.5]}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", scenarioPath, "-export-csv", csvDir}, nil, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("wrote %d files, want 4 cells", len(entries))
	}
	for i, e := range entries {
		if want := fmt.Sprintf("cell-%04d.csv", i); e.Name() != want {
			t.Errorf("file %d named %s, want %s", i, e.Name(), want)
		}
	}
	// Grid order: the first cell is the first assignment of the sorted
	// paths (discipline=edf, instantShare=0.1), and rows are CSV records
	// with the cell key, metric name, and value.
	data, err := os.ReadFile(filepath.Join(csvDir, "cell-0000.csv"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.HasPrefix(text, "cell,metric,value\n") {
		t.Errorf("missing CSV header:\n%s", text)
	}
	if !strings.Contains(text, "edf") || !strings.Contains(text, "0.1") {
		t.Errorf("first cell is not the first grid assignment:\n%s", text)
	}
	if !strings.Contains(text, "completed") {
		t.Errorf("metrics missing from CSV:\n%s", text)
	}
}

func TestExportCSVPlainRunWritesOneCell(t *testing.T) {
	dir := t.TempDir()
	scenarioPath := filepath.Join(dir, "s.json")
	csvDir := filepath.Join(dir, "cells")
	if err := os.WriteFile(scenarioPath, []byte(`{"kind": "banking", "transactions": 60, "seed": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", scenarioPath, "-export-csv", csvDir}, nil, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cell-0000.csv" {
		t.Fatalf("plain run wrote %v, want one cell-0000.csv", entries)
	}
}

// --- distributed sweeps and worker mode -------------------------------------

func writeSweepFiles(t *testing.T) (base, grid string) {
	t.Helper()
	dir := t.TempDir()
	base = filepath.Join(dir, "base.json")
	grid = filepath.Join(dir, "grid.json")
	if err := os.WriteFile(base, []byte(`{"kind": "banking", "transactions": 120, "seed": 9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(grid, []byte(`{"/discipline": ["edf", "fcfs"], "/instantShare": [0.1, 0.4]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return base, grid
}

// TestWorkerModeServesCellsOnStdio drives `mcsim -worker` in-process: one
// work unit in, one result line per cell out.
func TestWorkerModeServesCellsOnStdio(t *testing.T) {
	unit := dist.WorkUnit{ID: 0, Cells: []dist.CellSpec{
		{Index: 0, Key: "a", Seed: 3, Doc: json.RawMessage(`{"kind": "banking", "transactions": 50, "seed": 3}`)},
		{Index: 1, Key: "b", Seed: 4, Doc: json.RawMessage(`{"kind": "nope"}`)},
	}}
	payload, err := json.Marshal(unit)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-worker"}, strings.NewReader(string(payload)+"\n"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("worker emitted %d lines, want 2:\n%s", len(lines), out.String())
	}
	var first, second dist.CellResult
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first.Result == nil || first.Result.Scenario != "banking" {
		t.Errorf("first result = %+v, want banking envelope", first)
	}
	if second.Err == "" {
		t.Errorf("unknown-kind cell did not error: %+v", second)
	}
}

// TestDistributedResumeWritesCheckpoint: a -resume campaign leaves a
// checkpoint a second invocation replays without recomputing (verified by
// running the replay against a dead fleet — it must still succeed).
func TestDistributedResumeWritesCheckpoint(t *testing.T) {
	base, grid := writeSweepFiles(t)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	srv := httptest.NewServer(dist.NewServer().Handler())
	var want strings.Builder
	args := []string{"-scenario", base, "-sweep", grid, "-distributed", "-connect", srv.URL, "-resume", ckpt}
	if err := run(args, nil, &want, io.Discard); err != nil {
		t.Fatal(err)
	}
	srv.Close() // fleet is now dead; only the checkpoint can answer
	var got strings.Builder
	if err := run(args, nil, &got, io.Discard); err != nil {
		t.Fatalf("checkpoint replay failed: %v", err)
	}
	if got.String() != want.String() {
		t.Errorf("replayed report diverged:\n got %s\nwant %s", got.String(), want.String())
	}
}

func TestDistributedRejectsNonSweepDocument(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(`{"kind": "banking", "transactions": 50}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-scenario", path, "-distributed"}, nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "not a sweep") {
		t.Errorf("err = %v, want not-a-sweep", err)
	}
}

func TestDistributedRejectsEmptyConnect(t *testing.T) {
	base, grid := writeSweepFiles(t)
	err := run([]string{"-scenario", base, "-sweep", grid, "-distributed", "-connect", " , "}, nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no worker URLs") {
		t.Errorf("err = %v, want no-worker-URLs", err)
	}
}

// --- kind handling ----------------------------------------------------------

func TestUnknownKindErrorsWithListHint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(`{"kind": "datacentre", "seed": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-scenario", path}, nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "datacentre") || !strings.Contains(err.Error(), "-list") {
		t.Errorf("err = %v, want unknown-kind error with the -list hint", err)
	}
}

func TestAbsentKindDefaultsLoudly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(`{"machines": 4, "workload": {"jobs": 10}, "horizonSeconds": 3600, "seed": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, status strings.Builder
	if err := run([]string{"-scenario", path}, nil, &out, &status); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status.String(), `no "kind"`) || !strings.Contains(status.String(), "datacenter") {
		t.Errorf("status %q does not announce the default kind", status.String())
	}
	var res scenario.Result
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "datacenter" {
		t.Errorf("scenario = %q, want the documented default", res.Scenario)
	}
}
