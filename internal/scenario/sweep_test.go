package scenario_test

// Sweep engine tests: deterministic grid expansion, per-cell seed
// derivation, worker-pool determinism (same report bytes at any
// parallelism), and the degenerate grids.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"mcs/internal/scenario"

	_ "mcs/internal/banking"
)

func sweepCfg(t *testing.T, doc string) scenario.SweepJSON {
	t.Helper()
	var cfg scenario.SweepJSON
	if err := json.Unmarshal([]byte(doc), &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestExpandGridOrderAndValues(t *testing.T) {
	cells, err := scenario.ExpandGrid(sweepCfg(t, `{
		"seed": 3,
		"base": {"kind": "banking", "transactions": 100},
		"grid": {
			"/b": [1, 2, 3],
			"/a": ["x", "y"]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	// Paths sort to [/a /b]; /b (the last path) cycles fastest.
	wantKeys := []string{
		`/a="x",/b=1`, `/a="x",/b=2`, `/a="x",/b=3`,
		`/a="y",/b=1`, `/a="y",/b=2`, `/a="y",/b=3`,
	}
	if len(cells) != len(wantKeys) {
		t.Fatalf("got %d cells, want %d", len(cells), len(wantKeys))
	}
	for i, want := range wantKeys {
		if cells[i].Key != want {
			t.Errorf("cell %d key = %q, want %q", i, cells[i].Key, want)
		}
		var doc map[string]any
		if err := json.Unmarshal(cells[i].Doc, &doc); err != nil {
			t.Fatal(err)
		}
		if doc["transactions"] != float64(100) {
			t.Errorf("cell %d lost base field: %v", i, doc["transactions"])
		}
		if doc["seed"] != float64(cells[i].Seed) {
			t.Errorf("cell %d doc seed %v != derived seed %d", i, doc["seed"], cells[i].Seed)
		}
	}
}

func TestExpandGridSeedDerivation(t *testing.T) {
	doc := `{
		"seed": 9,
		"base": {"kind": "banking"},
		"grid": {"/transactions": [100, 200]}
	}`
	a, err := scenario.ExpandGrid(sweepCfg(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Seed == a[1].Seed {
		t.Error("distinct cells share a seed")
	}
	// Same cell, same seed on re-expansion.
	b, _ := scenario.ExpandGrid(sweepCfg(t, doc))
	for i := range a {
		if a[i].Seed != b[i].Seed {
			t.Errorf("cell %d seed changed across expansions: %d vs %d", i, a[i].Seed, b[i].Seed)
		}
	}
	// Growing the grid must not reshuffle existing cells' seeds.
	grown, err := scenario.ExpandGrid(sweepCfg(t, `{
		"seed": 9,
		"base": {"kind": "banking"},
		"grid": {"/transactions": [100, 200, 300]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if grown[i].Seed != a[i].Seed {
			t.Errorf("cell %d seed reshuffled by grid growth: %d vs %d", i, grown[i].Seed, a[i].Seed)
		}
	}
	// A different base seed moves every cell.
	moved, _ := scenario.ExpandGrid(sweepCfg(t, strings.Replace(doc, `"seed": 9`, `"seed": 10`, 1)))
	if moved[0].Seed == a[0].Seed {
		t.Error("base seed change did not move cell seeds")
	}
}

func TestExpandGridDegenerateCases(t *testing.T) {
	// Empty grid: one cell, the base itself.
	cells, err := scenario.ExpandGrid(sweepCfg(t, `{
		"seed": 1, "base": {"kind": "banking", "transactions": 50}, "grid": {}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("empty grid expanded to %d cells, want 1", len(cells))
	}
	// Single-value grid: still one cell, with the assignment applied.
	cells, err = scenario.ExpandGrid(sweepCfg(t, `{
		"seed": 1, "base": {"kind": "banking"}, "grid": {"/transactions": [70]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("1-cell grid expanded to %d cells", len(cells))
	}
	var doc map[string]any
	if err := json.Unmarshal(cells[0].Doc, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["transactions"] != float64(70) {
		t.Errorf("assignment not applied: %v", doc["transactions"])
	}
	// Missing base and empty value lists are rejected.
	if _, err := scenario.ExpandGrid(scenario.SweepJSON{}); err == nil {
		t.Error("missing base accepted")
	}
	if _, err := scenario.ExpandGrid(sweepCfg(t, `{
		"base": {"kind": "banking"}, "grid": {"/x": []}
	}`)); err == nil {
		t.Error("empty value list accepted")
	}
}

// TestExpandGridRejectsOversizedGrids pins the cell bound: repetitions or
// a grid product past MaxSweepCells (including one that overflows int) is
// an error before any cell is built, and the bound itself is accepted.
func TestExpandGridRejectsOversizedGrids(t *testing.T) {
	eight := `[1, 2, 3, 4, 5, 6, 7, 8]`
	var paths []string
	for i := 0; i < 22; i++ {
		paths = append(paths, fmt.Sprintf("%q: %s", fmt.Sprintf("/p%d", i), eight))
	}
	for name, doc := range map[string]string{
		"repetitions":      `{"base": {"kind": "banking"}, "repetitions": 9223372036854775807}`,
		"bound+1":          fmt.Sprintf(`{"base": {"kind": "banking"}, "repetitions": %d}`, scenario.MaxSweepCells+1),
		"product overflow": `{"base": {"kind": "banking"}, "grid": {` + strings.Join(paths, ", ") + `}}`,
	} {
		if _, err := scenario.ExpandGrid(sweepCfg(t, doc)); err == nil || !strings.Contains(err.Error(), "cells") {
			t.Errorf("%s: err = %v, want the cell bound", name, err)
		}
	}
	cells, err := scenario.ExpandGrid(sweepCfg(t, fmt.Sprintf(`{"base": {"kind": "banking"}, "repetitions": %d}`, scenario.MaxSweepCells)))
	if err != nil || len(cells) != scenario.MaxSweepCells {
		t.Errorf("at the bound: %d cells, err %v", len(cells), err)
	}
}

func TestExpandGridNestedPathsAndRepetitions(t *testing.T) {
	cells, err := scenario.ExpandGrid(sweepCfg(t, `{
		"seed": 4,
		"base": {"kind": "banking"},
		"grid": {"/scheduler/queue": ["fcfs", "sjf"]},
		"repetitions": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 2 values x 3 reps", len(cells))
	}
	var doc map[string]any
	if err := json.Unmarshal(cells[0].Doc, &doc); err != nil {
		t.Fatal(err)
	}
	sch, ok := doc["scheduler"].(map[string]any)
	if !ok || sch["queue"] != "fcfs" {
		t.Errorf("nested path not created: %v", doc["scheduler"])
	}
	seen := map[int64]bool{}
	for _, c := range cells {
		if seen[c.Seed] {
			t.Errorf("repetition reuses seed %d", c.Seed)
		}
		seen[c.Seed] = true
	}
}

func TestSweepRejectsBadBases(t *testing.T) {
	for name, doc := range map[string]string{
		"nested sweep":    `{"base": {"kind": "sweep"}, "grid": {}}`,
		"unknown kind":    `{"base": {"kind": "not-a-kind"}, "grid": {}}`,
		"missing base":    `{"grid": {"/x": [1]}}`,
		"non-object path": `{"base": {"kind": "banking", "transactions": 5}, "grid": {"/transactions/deep": [1]}}`,
	} {
		_, err := scenario.Run("sweep", 1, json.RawMessage(doc))
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSweepCombinedReportShape(t *testing.T) {
	res, err := scenario.RunDocument(json.RawMessage(`{
		"kind": "sweep", "seed": 6,
		"base": {"kind": "banking", "transactions": 150},
		"grid": {"/discipline": ["edf", "fcfs"]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "sweep" || res.Labels["base"] != "banking" {
		t.Errorf("envelope = %q base=%q", res.Scenario, res.Labels["base"])
	}
	if res.Metrics["cells"] != 2 {
		t.Errorf("cells metric = %v", res.Metrics["cells"])
	}
	for _, stat := range []string{"completed.mean", "completed.min", "completed.max"} {
		if _, ok := res.Metrics[stat]; !ok {
			t.Errorf("summary missing %s", stat)
		}
	}
	var events uint64
	for i, cell := range res.Cells {
		if cell.Scenario != "banking" {
			t.Errorf("cell %d scenario = %q", i, cell.Scenario)
		}
		if cell.Labels["cell"] == "" {
			t.Errorf("cell %d missing cell label", i)
		}
		events += cell.Events
	}
	if res.Events != events {
		t.Errorf("combined events %d != sum of cells %d", res.Events, events)
	}
	if res.Cells[0].Labels["cell"] != `/discipline="edf"` {
		t.Errorf("first cell = %q, want edf first", res.Cells[0].Labels["cell"])
	}
}

func TestSweepLargeSeedSurvivesRoundTrip(t *testing.T) {
	// 2^53+1 is not representable as float64; the expansion must keep the
	// exact literal through the unmarshal/apply/marshal round trip.
	const big = 9007199254740993
	cells, err := scenario.ExpandGrid(sweepCfg(t, fmt.Sprintf(`{
		"seed": 1,
		"base": {"kind": "banking", "transactions": 100},
		"grid": {"/seed": [%d]}
	}`, big)))
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Seed != big {
		t.Errorf("cell seed = %d, want %d", cells[0].Seed, big)
	}
	if !strings.Contains(string(cells[0].Doc), fmt.Sprintf("%d", big)) {
		t.Errorf("cell doc lost the exact seed literal: %s", cells[0].Doc)
	}
}

func TestSweepExplicitSeedPathWins(t *testing.T) {
	res, err := scenario.RunDocument(json.RawMessage(`{
		"kind": "sweep", "seed": 8,
		"base": {"kind": "banking", "transactions": 100},
		"grid": {"/seed": [41, 42]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].Seed != 41 || res.Cells[1].Seed != 42 {
		t.Errorf("swept seeds not honored: %d, %d", res.Cells[0].Seed, res.Cells[1].Seed)
	}
}

func TestSweepSeedPathWithRepetitionsStaysDistinct(t *testing.T) {
	// Repetitions promise distinct runs even when /seed is swept: each rep
	// re-derives from the swept value, so no two cells repeat a seed.
	cells, err := scenario.ExpandGrid(sweepCfg(t, `{
		"seed": 8,
		"base": {"kind": "banking", "transactions": 100},
		"grid": {"/seed": [41, 42]},
		"repetitions": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	seen := map[int64]bool{}
	for _, c := range cells {
		if seen[c.Seed] {
			t.Errorf("duplicate seed %d across repetitions of a swept /seed", c.Seed)
		}
		seen[c.Seed] = true
	}
}

func TestExpandGridArrayIndexPaths(t *testing.T) {
	// Numeric segments index into existing arrays, to any nesting depth —
	// the multi-site/multi-cluster documents of the federation kind.
	cells, err := scenario.ExpandGrid(sweepCfg(t, `{
		"seed": 2,
		"base": {"kind": "banking", "sites": [
			{"clusters": [{"count": 1}, {"count": 2}]},
			{"name": "b"}
		]},
		"grid": {"/sites/0/clusters/1/count": [5, 9]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for i, want := range []float64{5, 9} {
		var doc map[string]any
		if err := json.Unmarshal(cells[i].Doc, &doc); err != nil {
			t.Fatal(err)
		}
		sites := doc["sites"].([]any)
		clusters := sites[0].(map[string]any)["clusters"].([]any)
		if got := clusters[1].(map[string]any)["count"]; got != want {
			t.Errorf("cell %d: count = %v, want %v", i, got, want)
		}
		// Untouched siblings survive the deep copy and the assignment.
		if got := clusters[0].(map[string]any)["count"]; got != float64(1) {
			t.Errorf("cell %d: sibling clobbered: %v", i, got)
		}
		if got := sites[1].(map[string]any)["name"]; got != "b" {
			t.Errorf("cell %d: second site clobbered: %v", i, got)
		}
	}
}

func TestExpandGridArrayIndexErrors(t *testing.T) {
	base := `{"kind": "banking", "sites": [{"machines": 2}]}`
	for name, c := range map[string]struct{ grid, wantErr string }{
		"out of range":     {`{"/sites/3/machines": [4]}`, "out of range"},
		"negative index":   {`{"/sites/-1/machines": [4]}`, "out of range"},
		"non-numeric":      {`{"/sites/first/machines": [4]}`, "not a number"},
		"through a scalar": {`{"/sites/0/machines/deep": [4]}`, "non-object"},
	} {
		_, err := scenario.ExpandGrid(sweepCfg(t, fmt.Sprintf(
			`{"seed": 1, "base": %s, "grid": %s}`, base, c.grid)))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.wantErr)
		}
	}
}

func TestSweepArrayPathEndToEnd(t *testing.T) {
	// A federation document swept over a per-site machine count: the
	// array-index path must reach the real adapter and change the result.
	res, err := scenario.RunDocument(json.RawMessage(`{
		"kind": "sweep", "seed": 3,
		"base": {
			"kind": "federation",
			"sites": [
				{"name": "a", "machines": 2, "jobs": 30, "pattern": "bursty"},
				{"name": "b", "machines": 4}
			],
			"policy": "least-loaded"
		},
		"grid": {"/sites/0/machines": [1, 8]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	a, b := res.Cells[0].Metrics, res.Cells[1].Metrics
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Error("sweeping /sites/0/machines changed nothing")
	}
}

func TestSweepRepetitionSummaryEmitsCI(t *testing.T) {
	run := func(doc string) *scenario.Result {
		res, err := scenario.RunDocument(json.RawMessage(doc))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// repetitions > 1: mean ± 95% CI half-width, no bare extrema.
	reps := run(`{
		"kind": "sweep", "seed": 6, "repetitions": 4,
		"base": {"kind": "banking", "transactions": 150},
		"grid": {"/discipline": ["edf", "fcfs"]}
	}`)
	if _, ok := reps.Metrics["meanLatencySeconds.mean"]; !ok {
		t.Error("repetitions summary missing .mean")
	}
	if _, ok := reps.Metrics["meanLatencySeconds.ci95"]; !ok {
		t.Errorf("repetitions summary missing .ci95 (have %v)", reps.MetricNames())
	}
	if ci := reps.Metrics["meanLatencySeconds.ci95"]; ci <= 0 {
		t.Errorf("ci95 = %v, want > 0 across distinct-seed repetitions", ci)
	}
	for _, name := range reps.MetricNames() {
		if strings.HasSuffix(name, ".min") || strings.HasSuffix(name, ".max") {
			t.Errorf("repetitions summary still has extremum metric %s", name)
		}
	}
	// repetitions <= 1: the historical mean/min/max shape, no CI.
	single := run(`{
		"kind": "sweep", "seed": 6,
		"base": {"kind": "banking", "transactions": 150},
		"grid": {"/discipline": ["edf", "fcfs"]}
	}`)
	if _, ok := single.Metrics["meanLatencySeconds.min"]; !ok {
		t.Error("plain summary missing .min")
	}
	for _, name := range single.MetricNames() {
		if strings.HasSuffix(name, ".ci95") {
			t.Errorf("plain summary has CI metric %s", name)
		}
	}
}
