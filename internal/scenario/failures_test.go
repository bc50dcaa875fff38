package scenario_test

// Tests for the sweepable failure-injection overlay and the common document
// envelope (PR: "failures" section + scenario.Common redesign). The
// load-bearing contracts:
//
//   - documents WITH the section are seed-stable and their failure timeline
//     derives from the document seed, never the kernel RNG;
//   - every failure parameter is a JSON-pointer sweep axis (the
//     resilience-campaign golden pins one; TestDeterminismContract runs it
//     at every pool size and fleet shape);
//   - kinds without a degradable capacity model reject the section loudly;
//   - a misspelled field fails with the offending key.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcs/internal/scenario"

	// Register every ecosystem scenario.
	_ "mcs/internal/autoscale"
	_ "mcs/internal/banking"
	_ "mcs/internal/faas"
	_ "mcs/internal/federation"
	_ "mcs/internal/gaming"
	_ "mcs/internal/graphproc"
	_ "mcs/internal/opendc"
	_ "mcs/internal/social"
)

func runDocBytes(t *testing.T, doc string) []byte {
	t.Helper()
	res, err := scenario.RunDocument(json.RawMessage(doc))
	if err != nil {
		t.Fatal(err)
	}
	return encodeResult(t, res)
}

// pinnedCells loads the golden result of a sweep document and indexes its
// cells' metrics by their cell label.
func pinnedCells(t *testing.T, name string) map[string]map[string]float64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res scenario.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	cells := map[string]map[string]float64{}
	for _, c := range res.Cells {
		cells[c.Labels["cell"]] = c.Metrics
	}
	return cells
}

// TestExampleDocClaims checks, on the pinned results, the claim each
// examples/ sweep document makes in examples/README.md.
func TestExampleDocClaims(t *testing.T) {
	bank := pinnedCells(t, "banking-clearing")
	fcfs, edf := bank[`/discipline="fcfs",/seed=9`], bank[`/discipline="edf",/seed=9`]
	if edf["missRate"] >= fcfs["missRate"] || edf["meanLatencySeconds"] != fcfs["meanLatencySeconds"] {
		t.Errorf("banking: edf %v vs fcfs %v; want a lower missRate at the same meanLatencySeconds", edf, fcfs)
	}
	fed := pinnedCells(t, "federation-routing")
	local, least := fed[`/policy="local-only",/seed=21`], fed[`/policy="least-loaded",/seed=21`]
	if least["meanWaitSeconds"] >= local["meanWaitSeconds"] {
		t.Errorf("federation: least-loaded meanWaitSeconds %v, local-only %v; want lower", least["meanWaitSeconds"], local["meanWaitSeconds"])
	}
	dc := pinnedCells(t, "datacenter-sizing")
	off, on := dc["/failures/enabled=false,/machines=8,/seed=7"], dc["/failures/enabled=true,/machines=8,/seed=7"]
	if on["p95WaitSeconds"] <= off["p95WaitSeconds"] {
		t.Errorf("datacenter: 8 machines p95WaitSeconds %v with failures, %v without; want higher", on["p95WaitSeconds"], off["p95WaitSeconds"])
	}
	res := pinnedCells(t, "resilience-campaign")
	short, long := res["/failures/groupSize/value=1,/failures/mtbf/mean=1800"], res["/failures/groupSize/value=1,/failures/mtbf/mean=7200"]
	if short["failureEvents"] <= long["failureEvents"] {
		t.Errorf("resilience: failureEvents %v at a 1800 s MTBF, %v at 7200 s; want more", short["failureEvents"], long["failureEvents"])
	}
}

// failureSection is the new-style overlay used across the per-kind tests:
// bursty Weibull arrivals, lognormal repairs, correlated group sizes.
const failureSection = `"failures": {
	"mtbf": {"dist": "weibull", "shape": 0.6, "mean": 7200},
	"repair": {"dist": "lognormal", "mean": 900},
	"groupSize": {"dist": "normal", "mean": 3, "sigma": 1.5},
	"rackBias": 0.8,
	"slo": {"availability": 0.995, "windowSeconds": 3600}
}`

// failureDocs holds one failures-enabled document per supporting kind.
var failureDocs = map[string]string{
	"datacenter": `{
		"kind": "datacenter", "machines": 16, "rackSize": 4,
		"workload": {"jobs": 120, "pattern": "bursty", "shape": "bag"},
		"horizonSeconds": 28800, "seed": 11, ` + failureSection + `}`,
	"federation": `{
		"kind": "federation",
		"sites": [
			{"name": "a", "machines": 4, "jobs": 40, "pattern": "bursty"},
			{"name": "b", "machines": 8}
		],
		"policy": "least-loaded", "seed": 11, ` + failureSection + `}`,
	"faas": `{
		"kind": "faas", "invocations": 400, "meanGapSeconds": 2,
		"keepWarm": 1, "idleTimeoutSeconds": 120, "seed": 11, ` + failureSection + `}`,
	"gaming": `{
		"kind": "gaming", "zones": 6, "zoneCapacity": 50,
		"arrivalPerHour": 600, "horizonHours": 6, "seed": 11, ` + failureSection + `}`,
}

// TestFailureOverlayEveryKindDeterministic runs each supporting kind with
// the overlay enabled: same document, byte-identical results, the full
// overlay metric set present, and a different seed moving the timeline.
func TestFailureOverlayEveryKindDeterministic(t *testing.T) {
	for kind, doc := range failureDocs {
		t.Run(kind, func(t *testing.T) {
			a := runDocBytes(t, doc)
			b := runDocBytes(t, doc)
			if !bytes.Equal(a, b) {
				t.Fatalf("same-seed runs differ:\n%s\n%s", a, b)
			}
			var res scenario.Result
			if err := json.Unmarshal(a, &res); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{
				"availability", "downtimeSeconds", "failureEvents",
				"failureUnits", "maxConcurrentDown",
				"sloWindowCount", "sloViolatedWindows", "sloViolationRate",
			} {
				if _, ok := res.Metrics[key]; !ok {
					t.Errorf("metric %q missing", key)
				}
			}
			if res.Metrics["failureEvents"] <= 0 {
				t.Errorf("failureEvents = %v, want > 0", res.Metrics["failureEvents"])
			}
			if av := res.Metrics["availability"]; av <= 0 || av > 1 {
				t.Errorf("availability = %v out of (0,1]", av)
			}
			reseeded := strings.Replace(doc, `"seed": 11`, `"seed": 12`, 1)
			c := runDocBytes(t, reseeded)
			if bytes.Equal(a, c) {
				t.Error("seed change did not move the failure timeline")
			}
		})
	}
}

// TestFailuresDisabledMatchesAbsent pins the overlay's off-switch: a section
// with "enabled": false must be byte-identical to no section at all — the
// on/off switch is itself a sweep axis, and "off" must mean exactly off.
func TestFailuresDisabledMatchesAbsent(t *testing.T) {
	base := `{
		"kind": "datacenter", "machines": 8,
		"workload": {"jobs": 60}, "horizonSeconds": 14400, "seed": 5}`
	disabled := `{
		"kind": "datacenter", "machines": 8,
		"workload": {"jobs": 60}, "horizonSeconds": 14400, "seed": 5,
		"failures": {"enabled": false, "mtbf": {"mean": 3600}}}`
	if a, b := runDocBytes(t, base), runDocBytes(t, disabled); !bytes.Equal(a, b) {
		t.Errorf("enabled:false differs from an absent section:\n%s\n%s", a, b)
	}
}

// TestRejectFailuresUnsupportedKinds pins the loud error for kinds without a
// capacity model the overlay can degrade.
func TestRejectFailuresUnsupportedKinds(t *testing.T) {
	for _, kind := range []string{"banking", "autoscale", "social", "graph"} {
		doc := `{"kind": "` + kind + `", "seed": 1, "failures": {"mtbf": {"mean": 3600}}}`
		_, err := scenario.RunDocument(json.RawMessage(doc))
		if err == nil {
			t.Errorf("%s: failures section silently accepted", kind)
			continue
		}
		if !strings.Contains(err.Error(), "does not support the failures overlay") {
			t.Errorf("%s: error %q does not name the unsupported overlay", kind, err)
		}
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("%s: error %q does not name the kind", kind, err)
		}
	}
}

// TestRejectParallelNonShardingKinds pins the loud error for kinds with no
// intra-run shard axis: "parallel" on them used to no-op silently, so a sweep
// over /parallel measured nothing.
func TestRejectParallelNonShardingKinds(t *testing.T) {
	for _, kind := range []string{"datacenter", "faas", "gaming", "banking", "autoscale", "social"} {
		doc := `{"kind": "` + kind + `", "seed": 1, "parallel": 2}`
		_, err := scenario.RunDocument(json.RawMessage(doc))
		if err == nil {
			t.Errorf("%s: parallel field silently ignored", kind)
			continue
		}
		if !strings.Contains(err.Error(), "does not shard") {
			t.Errorf("%s: error %q does not explain the missing shard axis", kind, err)
		}
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("%s: error %q does not name the kind", kind, err)
		}
	}
}

// TestSweepLevelFailuresRejected pins that the overlay belongs in the base
// document, where it sweeps like any other section.
func TestSweepLevelFailuresRejected(t *testing.T) {
	doc := `{
		"kind": "sweep", "seed": 1,
		"failures": {"mtbf": {"mean": 3600}},
		"base": {"kind": "banking", "transactions": 100},
		"grid": {"/discipline": ["edf"]}
	}`
	_, err := scenario.RunDocument(json.RawMessage(doc))
	if err == nil || !strings.Contains(err.Error(), "base document") {
		t.Errorf("sweep-level failures error = %v, want pointer to the base document", err)
	}
}

// TestFailureConfigErrorsNameFieldAndKind pins satellite 3: a bad failures
// section surfaces the offending field's JSON pointer and the scenario kind.
func TestFailureConfigErrorsNameFieldAndKind(t *testing.T) {
	cases := []struct {
		name, doc string
		want      []string
	}{
		{
			name: "missing mtbf",
			doc:  `{"kind": "datacenter", "seed": 1, "failures": {"repair": {"mean": 600}}}`,
			want: []string{`scenario "datacenter"`, "/failures", "mtbf"},
		},
		{
			name: "bad distribution name",
			doc:  `{"kind": "faas", "seed": 1, "failures": {"mtbf": {"dist": "wibble", "mean": 3600}}}`,
			want: []string{`scenario "faas"`, "/failures/mtbf", "wibble"},
		},
		{
			name: "rack bias out of range",
			doc:  `{"kind": "gaming", "seed": 1, "failures": {"mtbf": {"mean": 3600}, "rackBias": 1.5}}`,
			want: []string{`scenario "gaming"`, "rackBias"},
		},
		{
			name: "uniform needs lo < hi",
			doc:  `{"kind": "federation", "sites": [{"name": "a", "machines": 2}], "seed": 1, "failures": {"mtbf": {"dist": "uniform", "lo": 9, "hi": 3}}}`,
			want: []string{`scenario "federation"`, "/failures/mtbf", "lo < hi"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := scenario.RunDocument(json.RawMessage(tc.doc))
			if err == nil {
				t.Fatal("bad failures section accepted")
			}
			for _, frag := range tc.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q missing %q", err, frag)
				}
			}
		})
	}
}

// TestStrictRejectsUnknownFields pins that the strict decode names the
// offending key for misspelled fields, at the top level, inside the
// failures section, and inside every expanded sweep cell, names a nested
// unknown field by its JSON pointer, and names a mistyped value by its
// JSON pointer, never by the Go struct field.
func TestStrictRejectsUnknownFields(t *testing.T) {
	good := `{"kind": "banking", "transactions": 100, "seed": 1}`
	if err := scenario.Strict(json.RawMessage(good)); err != nil {
		t.Fatalf("well-formed document rejected: %v", err)
	}
	cases := []struct {
		name, doc, key string
	}{
		{"top level", `{"kind": "banking", "transacions": 100}`, "transacions"},
		{"failures section", `{"kind": "datacenter", "failures": {"mtfb": {"mean": 3600}}}`, "mtfb"},
		{"nested dist", `{"kind": "datacenter", "failures": {"mtbf": {"maen": 3600}}}`, "maen"},
		{
			"sweep base",
			`{"kind": "sweep", "base": {"kind": "banking", "transacions": 100}, "grid": {"/seed": [1]}}`,
			"transacions",
		},
		{
			"swept-in field",
			`{"kind": "sweep", "base": {"kind": "banking", "transactions": 100}, "grid": {"/transacions": [200]}}`,
			"transacions",
		},
		{"mistyped top-level field", `{"seed": "x"}`, "/seed: cannot unmarshal string into int64"},
		{"mistyped nested field", `{"workload": {"jobs": "x"}}`, "/workload/jobs: cannot unmarshal"},
		{"mistyped schema field", `{"kind": "datacenter", "machines": "x"}`, "/machines: cannot unmarshal"},
		{"mistyped array element", `{"kind": "federation", "sites": [{"name": "a"}, {"name": "b", "machines": "x"}]}`, "/sites/1/machines: cannot"},
		{"unknown field in array element", `{"kind": "federation", "sites": [{"name": "a"}, {"name": "b", "machnes": 4}]}`, `/sites/1/machnes: unknown field "machnes"`},
		{"unknown field in nested object", `{"kind": "datacenter", "failures": {"mtbf": {"maen": 3600}}}`, `/failures/mtbf/maen: unknown field "maen"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := scenario.Strict(json.RawMessage(tc.doc))
			if err == nil {
				t.Fatal("misspelled or mistyped field accepted")
			}
			if !strings.Contains(err.Error(), tc.key) {
				t.Errorf("error %q does not name the offending key %q", err, tc.key)
			}
		})
	}
}

// TestEveryKindRejectsUnknownFields: every registered kind's example
// document, with one unknown field added at the top level, in the shared
// workload block, or in a kind-specific nested object, fails scenario.New
// with an error naming the field. The plain example configures.
func TestEveryKindRejectsUnknownFields(t *testing.T) {
	nested := map[string][]string{
		"datacenter": {"/scheduler", "/failures/mtbf"},
		"faas":       {"/functions/0"},
		"federation": {"/sites/1", "/scheduler"},
		"sweep":      {"/base"},
	}
	for _, kind := range scenario.List() {
		if strings.HasPrefix(kind, "test-") {
			continue
		}
		ex, ok := scenario.Example(kind)
		if !ok {
			t.Fatalf("kind %q registered no example", kind)
		}
		if _, err := scenario.New(kind, json.RawMessage(ex)); err != nil {
			t.Fatalf("%s example: %v", kind, err)
		}
		for i, ptr := range append([]string{"", "/workload"}, nested[kind]...) {
			field := fmt.Sprintf("bogus%d", i)
			t.Run(kind+ptr, func(t *testing.T) {
				_, err := scenario.New(kind, withField(t, ex, ptr, field))
				if want := fmt.Sprintf("unknown field %q", field); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("error %v does not name %s", err, want)
				}
			})
		}
	}
}

// TestDecodeRejectsTrailingData: the strict decode reads one document and
// refuses anything after it, as a whole-input decode does.
func TestDecodeRejectsTrailingData(t *testing.T) {
	for _, doc := range []string{`{"transactions": 10} {"transactions": 20}`, `{"transactions": 10} x`} {
		if _, err := scenario.New("banking", json.RawMessage(doc)); err == nil {
			t.Errorf("%s: trailing data accepted", doc)
		}
	}
	if _, err := scenario.New("banking", json.RawMessage("{\"transactions\": 10}\n\t ")); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}
}

// withField returns doc with field set to 1 in the object at the JSON
// pointer ptr ("" is the top level), creating a missing object.
func withField(t *testing.T, doc, ptr, field string) json.RawMessage {
	t.Helper()
	var root any
	if err := json.Unmarshal([]byte(doc), &root); err != nil {
		t.Fatal(err)
	}
	node := root
	for _, seg := range strings.Split(ptr, "/")[1:] {
		switch n := node.(type) {
		case map[string]any:
			if n[seg] == nil {
				n[seg] = map[string]any{}
			}
			node = n[seg]
		case []any:
			i, err := strconv.Atoi(seg)
			if err != nil || i >= len(n) {
				t.Fatalf("pointer %s: no element %q", ptr, seg)
			}
			node = n[i]
		}
	}
	obj, ok := node.(map[string]any)
	if !ok {
		t.Fatalf("pointer %s does not name an object", ptr)
	}
	obj[field] = 1
	out, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTraceReplayRejectsBadSources: every trace-capable kind rejects a
// missing trace file and an unknown format at Configure.
func TestTraceReplayRejectsBadSources(t *testing.T) {
	for _, kind := range scenario.List() {
		if !isProvider(kind) {
			continue
		}
		t.Run(kind, func(t *testing.T) {
			missing := json.RawMessage(`{"workload": {"trace": "/nonexistent/trace.mcw"}}`)
			if _, err := scenario.New(kind, missing); err == nil {
				t.Error("missing trace file did not error at Configure")
			}
			badFormat := json.RawMessage(`{"workload": {"trace": "x.mcw", "format": "parquet"}}`)
			if _, err := scenario.New(kind, badFormat); err == nil {
				t.Error("unknown trace format did not error at Configure")
			}
		})
	}
}

// TestStrictRepetitionsErrorUnchanged: the sweep's cell check decodes one
// repetition per assignment, and a sweep whose base holds an unknown field
// still fails with the message the per-cell check gave, naming rep #0 of
// the first assignment.
func TestStrictRepetitionsErrorUnchanged(t *testing.T) {
	doc := `{"kind": "sweep", "seed": 3, "repetitions": 64,
	  "base": {"kind": "banking", "transactions": 100, "bogus": 1},
	  "grid": {"/discipline": ["edf", "fcfs"]}}`
	want := `cell "/discipline=\"edf\",#0": scenario "banking": strict parse: json: unknown field "bogus"`
	if err := scenario.Strict(json.RawMessage(doc)); err == nil || err.Error() != want {
		t.Errorf("Strict = %v\nwant      %s", err, want)
	}
}
