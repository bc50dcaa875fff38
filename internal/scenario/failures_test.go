package scenario_test

// Tests for the sweepable failure-injection overlay and the common document
// envelope (PR: "failures" section + scenario.Common redesign). The
// load-bearing contracts:
//
//   - every golden document (testdata/golden and examples/) parses
//     under Strict and reproduces its captured result bytes;
//   - documents WITH the section are seed-stable and their failure timeline
//     derives from the document seed, never the kernel RNG;
//   - every failure parameter is a JSON-pointer sweep axis whose combined
//     report is invariant to the worker count;
//   - kinds without a degradable capacity model reject the section loudly;
//   - -strict surfaces misspelled fields with the offending key.

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
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

func runDocBytes(t *testing.T, doc string) []byte {
	t.Helper()
	res, err := scenario.RunDocument(json.RawMessage(doc))
	if err != nil {
		t.Fatal(err)
	}
	return encodeResult(t, res)
}

// goldenDocs maps each golden subtest name to its document: the captured
// per-kind documents under testdata/golden, and every document under
// examples/, named by its path there with "/" as "-" and ".json" dropped
// (examples/paper/d1-autoscalers.json is paper-d1-autoscalers). Either way
// the result is captured as testdata/golden/<name>.result.json.
func goldenDocs(t testing.TB) map[string]string {
	t.Helper()
	docs := map[string]string{}
	captured, err := filepath.Glob(filepath.Join("testdata", "golden", "*.doc.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range captured {
		docs[strings.TrimSuffix(filepath.Base(p), ".doc.json")] = p
	}
	examples := filepath.Join("..", "..", "examples")
	n := 0
	err = filepath.WalkDir(examples, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".json" {
			return err
		}
		rel, err := filepath.Rel(examples, p)
		if err != nil {
			return err
		}
		name := strings.ReplaceAll(filepath.ToSlash(strings.TrimSuffix(rel, ".json")), "/", "-")
		if prev, ok := docs[name]; ok {
			t.Fatalf("golden name %s is taken by both %s and %s", name, prev, p)
		}
		docs[name] = p
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(captured) == 0 || n == 0 {
		t.Fatalf("golden documents missing: %d captured, %d examples", len(captured), n)
	}
	return docs
}

// TestGoldenDocsByteIdentical replays every golden document, checks it
// parses under Strict (a misspelled field would otherwise fall back to its
// default silently), and compares the result bytes against the committed
// capture. Any change that moves a report byte of an existing document
// fails here.
func TestGoldenDocsByteIdentical(t *testing.T) {
	docs := goldenDocs(t)
	for _, name := range slices.Sorted(maps.Keys(docs)) {
		docPath := docs[name]
		t.Run(name, func(t *testing.T) {
			doc, err := os.ReadFile(docPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := scenario.Strict(doc); err != nil {
				t.Fatalf("%s: %v", docPath, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".result.json"))
			if err != nil {
				t.Fatal(err)
			}
			got := runDocBytes(t, string(doc))
			if !bytes.Equal(got, want) {
				t.Errorf("result bytes changed for golden document %s:\n--- golden ---\n%s\n--- now ---\n%s", name, want, got)
			}
		})
	}
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

// TestFailureAxisSweepWorkerCountInvariant sweeps the MTBF mean through the
// sweep meta-scenario — the overlay's reason to exist: every failure
// parameter is a JSON-pointer axis — and pins the combined report bytes
// across worker-pool sizes.
func TestFailureAxisSweepWorkerCountInvariant(t *testing.T) {
	sweepDoc := func(parallel int) string {
		return `{
			"kind": "sweep", "seed": 17, "parallel": ` + string(rune('0'+parallel)) + `,
			"base": {
				"kind": "datacenter", "machines": 8,
				"workload": {"jobs": 60, "pattern": "bursty"},
				"horizonSeconds": 14400,
				"failures": {
					"mtbf": {"mean": 3600}, "repair": {"mean": 600},
					"groupSize": {"dist": "const", "value": 1}
				}
			},
			"grid": {
				"/failures/mtbf/mean": [1800, 3600, 7200],
				"/failures/groupSize/value": [1, 4]
			}
		}`
	}
	a := runDocBytes(t, sweepDoc(1))
	b := runDocBytes(t, sweepDoc(4))
	// The parallel field affects wall-clock only; it is excluded from the
	// envelope (WallClock is json:"-"), so the bytes must match exactly.
	if !bytes.Equal(a, b) {
		t.Fatal("failure-axis sweep bytes depend on worker count")
	}
	var res scenario.Result
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(res.Cells))
	}
	seen := map[float64]bool{}
	for _, cell := range res.Cells {
		seen[cell.Metrics["failureEvents"]] = true
	}
	if len(seen) < 2 {
		t.Error("sweeping /failures/mtbf/mean did not change failureEvents across cells")
	}
}

// TestFederationFailuresPoolSizeInvariance runs federation-with-failures at
// several per-site worker-pool sizes: per-site timelines are independent
// document-seeded streams (ShardSource), so the bytes must not depend on the
// pool size. The name matches the CI race job's -run pattern, putting the
// overlay's concurrency under the race detector.
func TestFederationFailuresPoolSizeInvariance(t *testing.T) {
	doc := func(parallel int) string {
		return strings.Replace(failureDocs["federation"],
			`"policy": "least-loaded"`,
			`"policy": "least-loaded", "parallel": `+string(rune('0'+parallel)), 1)
	}
	want := runDocBytes(t, doc(1))
	for _, parallel := range []int{2, 4} {
		if got := runDocBytes(t, doc(parallel)); !bytes.Equal(got, want) {
			t.Errorf("parallel=%d changes federation-with-failures bytes", parallel)
		}
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

// TestStrictRejectsUnknownFields pins satellite 2: -strict's parser names
// the offending key for misspelled fields, at the top level, inside the
// failures section, and inside every expanded sweep cell.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := scenario.Strict(json.RawMessage(tc.doc))
			if err == nil {
				t.Fatal("misspelled field accepted")
			}
			if !strings.Contains(err.Error(), tc.key) {
				t.Errorf("error %q does not name the offending key %q", err, tc.key)
			}
		})
	}
}

// TestStrictRepetitionsErrorUnchanged: Strict decodes one repetition per
// assignment, and a sweep whose base holds an unknown field still fails
// with the message the per-cell check gave, naming rep #0 of the first
// assignment.
func TestStrictRepetitionsErrorUnchanged(t *testing.T) {
	doc := `{"kind": "sweep", "seed": 3, "repetitions": 64,
	  "base": {"kind": "banking", "transactions": 100, "bogus": 1},
	  "grid": {"/discipline": ["edf", "fcfs"]}}`
	want := `cell "/discipline=\"edf\",#0": scenario "banking": strict parse: json: unknown field "bogus"`
	if err := scenario.Strict(json.RawMessage(doc)); err == nil || err.Error() != want {
		t.Errorf("Strict = %v\nwant      %s", err, want)
	}
}

// TestEveryRegisteredKindPublishesSchema keeps -strict total: a kind without
// a Schema would make strict parsing unavailable for its documents.
func TestEveryRegisteredKindPublishesSchema(t *testing.T) {
	for _, kind := range scenario.List() {
		if strings.HasPrefix(kind, "test-") {
			continue
		}
		factory, _ := scenario.Lookup(kind)
		if _, ok := factory().(scenario.Schemer); !ok {
			t.Errorf("kind %q does not implement scenario.Schemer", kind)
		}
	}
}
