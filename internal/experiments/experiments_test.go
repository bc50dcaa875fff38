package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcs/internal/scenario"
)

// quick runs every experiment in Quick mode; each must succeed and produce a
// well-formed report.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, Options{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if rep.ID != id {
				t.Errorf("report id %q, want %q", rep.ID, id)
			}
			if rep.Title == "" || rep.Headline == "" {
				t.Error("missing title/headline")
			}
			if len(rep.Columns) == 0 || len(rep.Rows) == 0 {
				t.Error("empty table")
			}
			for i, row := range rep.Rows {
				if len(row) != len(rep.Columns) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(rep.Columns))
				}
			}
			if !strings.Contains(rep.String(), rep.ID) {
				t.Error("String() does not render the report")
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("Z9", Options{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestIDsCanonicalOrder(t *testing.T) {
	ids := IDs()
	if len(ids) != 14 {
		t.Fatalf("ids=%d, want 14 (F1-F5, T1-T5, D3-D6)", len(ids))
	}
	want := []string{"F1", "F2", "F3", "F4", "F5", "T1", "T2", "T3", "T4", "T5", "D3", "D4", "D5", "D6"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids=%v", ids)
		}
	}
}

// --- claim-shape assertions: each experiment's headline must hold in the
// produced numbers, not just be printed. ---

func cell(rep *Report, rowPrefix []string, col string) string {
	ci := -1
	for i, c := range rep.Columns {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return ""
	}
	for _, row := range rep.Rows {
		match := true
		for i, p := range rowPrefix {
			if i >= len(row) || !strings.Contains(row[i], p) {
				match = false
				break
			}
		}
		if match {
			return row[ci]
		}
	}
	return ""
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func mustDuration(t *testing.T, s string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return d
}

func TestF3ClaimEASYBeatsStrict(t *testing.T) {
	rep, err := F3DatacenterRefArch(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var strict, easy time.Duration
	for _, row := range rep.Rows {
		if row[2] == "mean wait" {
			switch row[1] {
			case "strict fcfs":
				strict = mustDuration(t, row[3])
			case "easy+sjf":
				easy = mustDuration(t, row[3])
			}
		}
	}
	if easy == 0 && strict == 0 {
		t.Skip("workload produced no queueing at quick scale")
	}
	if easy > strict {
		t.Errorf("EASY mean wait %v above strict %v", easy, strict)
	}
}

// TestF4GamingAnalyticsPinned pins F4's gaming-analytics rows at quick
// scale: the tie count of the world's interaction graph and the toxicity
// detector's precision and recall. The values are the printed cells, so a
// change to the graph or to the analysis's random draws shows here.
func TestF4GamingAnalyticsPinned(t *testing.T) {
	rep, err := F4GamingEcosystem(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ aspect, metric, want string }{
		{"social graph", "implicit ties", "140274"},
		{"toxicity detection", "precision", "0.59"},
		{"toxicity detection", "recall", "0.51"},
	} {
		if got := cell(rep, []string{"gaming analytics", c.aspect, c.metric}, "value"); got != c.want {
			t.Errorf("F4 gaming analytics %s %s = %q, want %q", c.aspect, c.metric, got, c.want)
		}
	}
}

func TestT2ClaimReactBeatsStaticOnOverProvisioning(t *testing.T) {
	rep, err := T2Principles(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var staticAccO, reactAccO float64
	for _, row := range rep.Rows {
		if row[0] == "static" {
			staticAccO = mustFloat(t, strings.TrimPrefix(row[1], "accO="))
		}
		if row[0] == "react" {
			reactAccO = mustFloat(t, strings.TrimPrefix(row[1], "accO="))
		}
	}
	if reactAccO >= staticAccO {
		t.Errorf("react accO %v not below static %v", reactAccO, staticAccO)
	}
}

func TestT3ClaimFineGrainedNFRsCutWaste(t *testing.T) {
	rep, err := T3Challenges(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	coarse := cell(rep, []string{"C3*", "experiment", "coarse"}, "principles / result")
	fine := cell(rep, []string{"C3*", "experiment", "fine"}, "principles / result")
	co := mustFloat(t, strings.TrimPrefix(coarse, "over-provision accO="))
	fi := mustFloat(t, strings.TrimPrefix(fine, "over-provision accO="))
	if fi >= co {
		t.Errorf("fine-grained accO %v not below coarse %v", fi, co)
	}
}

func TestD3ClaimMetricsDiscriminate(t *testing.T) {
	rep, err := D3ElasticityMetrics(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// exact supply has zero risk; half supply has high accU; peak-static has
	// high accO; oscillating has high instability.
	if v := mustFloat(t, cell(rep, []string{"exact"}, "risk")); v != 0 {
		t.Errorf("exact supply risk=%v", v)
	}
	if v := mustFloat(t, cell(rep, []string{"half"}, "accU")); v <= 0 {
		t.Errorf("half supply accU=%v", v)
	}
	if v := mustFloat(t, cell(rep, []string{"peak-static"}, "accO")); v <= 0 {
		t.Errorf("static supply accO=%v", v)
	}
	if v := mustFloat(t, cell(rep, []string{"oscillating"}, "instability")); v <= 0 {
		t.Errorf("oscillating instability=%v", v)
	}
}

func TestD5ClaimSocialAwareCutsUnderProvisioning(t *testing.T) {
	rep, err := D5SocialAware(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	react := mustFloat(t, cell(rep, []string{"react"}, "accU"))
	socialAware := mustFloat(t, cell(rep, []string{"social-aware"}, "accU"))
	if socialAware > react {
		t.Errorf("social-aware accU %v above react %v", socialAware, react)
	}
}

func TestD6ClaimMultiTenancyRaisesVariability(t *testing.T) {
	rep, err := D6PerfVariability(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	quiet := mustFloat(t, cell(rep, []string{"quiet"}, "CV"))
	mt := mustFloat(t, cell(rep, []string{"multi-tenant"}, "CV"))
	if mt <= quiet {
		t.Errorf("multi-tenant CV %v not above quiet %v", mt, quiet)
	}
}

// --- D1, D2 and F5 run as sweep documents under examples/paper; their
// claims are checked on the results pinned in the golden corpus, which
// TestGoldenDocsByteIdentical keeps byte-identical to a fresh run. ---

// pinned loads the golden result of the examples/paper document name.
func pinned(t *testing.T, name string) *scenario.Result {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "scenario", "testdata", "golden", "paper-"+name+".result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res scenario.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 {
		t.Fatalf("%s: pinned result has no cells", name)
	}
	return &res
}

// cellBy returns the pinned cell whose label key has value v.
func cellBy(t *testing.T, res *scenario.Result, key, v string) *scenario.Result {
	t.Helper()
	for i := range res.Cells {
		if res.Cells[i].Labels[key] == v {
			return res.Cells[i]
		}
	}
	t.Fatalf("no cell with %s=%s", key, v)
	return nil
}

// TestD1ClaimNoAutoscalerWinsEveryPattern checks the claim imported from
// [43]: the minimum-risk autoscaler changes with the demand pattern.
func TestD1ClaimNoAutoscalerWinsEveryPattern(t *testing.T) {
	res := pinned(t, "d1-autoscalers")
	best := map[string]*scenario.Result{}
	for i := range res.Cells {
		c := res.Cells[i]
		p := c.Labels["pattern"]
		if b, ok := best[p]; !ok || c.Metrics["risk"] < b.Metrics["risk"] {
			best[p] = c
		}
	}
	if len(best) != 3 || len(res.Cells) != 21 {
		t.Fatalf("%d cells over %d patterns, want 7 policies x 3 patterns", len(res.Cells), len(best))
	}
	winners := map[string]bool{}
	for p, c := range best {
		t.Logf("best on %s: %s (risk %.3f)", p, c.Labels["policy"], c.Metrics["risk"])
		winners[c.Labels["policy"]] = true
	}
	if len(winners) < 2 {
		t.Errorf("one autoscaler wins every pattern: %v", winners)
	}
}

// TestD2ClaimCorrelatedFailuresGoDeeper checks the §2.2 claim: at a
// comparable failure mass, correlated failures take down more machines at
// once than independent ones.
func TestD2ClaimCorrelatedFailuresGoDeeper(t *testing.T) {
	res := pinned(t, "d2-failures")
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells, want independent and correlated", len(res.Cells))
	}
	// Grid order follows the document: independent, then correlated.
	ind, cor := res.Cells[0].Metrics, res.Cells[1].Metrics
	if cor["maxConcurrentDown"] <= ind["maxConcurrentDown"] {
		t.Errorf("correlated max-down %v not above independent %v", cor["maxConcurrentDown"], ind["maxConcurrentDown"])
	}
	if lo, hi := min(ind["failureUnits"], cor["failureUnits"]), max(ind["failureUnits"], cor["failureUnits"]); lo <= 0 || hi > 1.25*lo {
		t.Errorf("failure units %v vs %v: not within 25%%", ind["failureUnits"], cor["failureUnits"])
	}
}

// TestF5ClaimKeepWarmReducesTail checks the Figure-5 trade-off: a larger
// keep-warm pool lowers p99 latency and costs instance-seconds.
func TestF5ClaimKeepWarmReducesTail(t *testing.T) {
	res := pinned(t, "f5-keepwarm")
	kw0 := cellBy(t, res, "cell", "/keepWarm=0").Metrics
	kw4 := cellBy(t, res, "cell", "/keepWarm=4").Metrics
	if kw4["p99LatencySeconds"] >= kw0["p99LatencySeconds"] {
		t.Errorf("keep-warm 4 p99 %v not below keep-warm 0 %v", kw4["p99LatencySeconds"], kw0["p99LatencySeconds"])
	}
	if kw4["instanceSeconds"] <= kw0["instanceSeconds"] {
		t.Errorf("keep-warm 4 instance-seconds %v not above keep-warm 0 %v: trade-off missing", kw4["instanceSeconds"], kw0["instanceSeconds"])
	}
}
