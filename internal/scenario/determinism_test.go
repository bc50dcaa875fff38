package scenario_test

// Cross-scenario determinism (paper §5.3, C15–C16): running every registered
// scenario twice with the same seed must produce byte-identical Result JSON.
// This is the contract that makes registry-driven experimentation
// reproducible, and it guards every ecosystem adapter at once.

import (
	"encoding/json"
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

// quickConfigs holds a small, fast configuration per registered kind.
// Kinds without an entry fall back to their Example document, so keep new
// scenarios' examples modest or add an entry here.
var quickConfigs = map[string]string{
	"datacenter": `{
		"machines": 8, "rackSize": 4,
		"workload": {"jobs": 60, "pattern": "bursty", "shape": "bag"},
		"scheduler": {"queue": "sjf", "placement": "bestfit", "mode": "easy"},
		"failures": {
			"enabled": true,
			"mtbf": {"dist": "exponential", "mean": 3600},
			"repair": {"dist": "exponential", "mean": 600},
			"groupSize": {"dist": "normal", "mean": 4, "sigma": 2},
			"rackBias": 0.8
		},
		"horizonSeconds": 14400, "seed": 1
	}`,
	"faas": `{
		"invocations": 500, "meanGapSeconds": 2,
		"keepWarm": 1, "idleTimeoutSeconds": 120, "seed": 7
	}`,
	"gaming": `{
		"zones": 6, "zoneCapacity": 50,
		"arrivalPerHour": 600, "diurnalAmp": 0.8,
		"horizonHours": 6, "seed": 3
	}`,
	"banking": `{
		"transactions": 1500, "instantShare": 0.3,
		"discipline": "edf", "seed": 5
	}`,
	"graph": `{
		"generator": "rmat", "scale": 9, "edgeFactor": 8, "seed": 9
	}`,
	"federation": `{
		"sites": [
			{"name": "a", "machines": 2, "jobs": 40, "pattern": "bursty"},
			{"name": "b", "machines": 4, "wanDelaySeconds": 2}
		],
		"policy": "least-loaded", "seed": 21
	}`,
	"autoscale": `{
		"policy": "conpaas", "pattern": "diurnal", "horizonHours": 6, "seed": 43
	}`,
	"social": `{
		"jobs": 150, "users": 16, "windowSeconds": 300, "seed": 7
	}`,
	"sweep": `{
		"seed": 17,
		"base": {"kind": "banking", "transactions": 200},
		"grid": {"/discipline": ["edf", "fcfs"], "/instantShare": [0.1, 0.4]}
	}`,
}

func configFor(t *testing.T, kind string) json.RawMessage {
	t.Helper()
	if cfg, ok := quickConfigs[kind]; ok {
		return json.RawMessage(cfg)
	}
	if ex, ok := scenario.Example(kind); ok {
		return json.RawMessage(ex)
	}
	return json.RawMessage(`{}`)
}

func TestAllScenariosRegistered(t *testing.T) {
	kinds := scenario.List()
	for _, want := range []string{
		"datacenter", "faas", "gaming", "banking", "graph",
		"federation", "autoscale", "social", "sweep",
	} {
		found := false
		for _, kind := range kinds {
			if kind == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("kind %q not registered (have %v)", want, kinds)
		}
	}
}

func TestEveryScenarioIsSeedDeterministic(t *testing.T) {
	for _, kind := range scenario.List() {
		if strings.HasPrefix(kind, "test-") {
			continue // fixtures registered by the registry unit tests
		}
		kind := kind
		t.Run(kind, func(t *testing.T) {
			cfg := configFor(t, kind)
			const seed = 11
			run := func() []byte {
				res, err := scenario.Run(kind, seed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			a, b := run(), run()
			if string(a) != string(b) {
				t.Errorf("same-seed runs differ:\n  run 1: %s\n  run 2: %s", a, b)
			}
			// A different seed must actually change something, or the
			// scenario is not wired to the kernel's randomness at all.
			// (Skip pure-shape kinds by checking events too.)
			res2, err := scenario.Run(kind, seed+1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			data2, _ := json.Marshal(res2)
			if string(a) == string(data2) {
				t.Logf("note: seed change did not alter %s result", kind)
			}
		})
	}
}

func TestScenarioRunThroughDocumentPath(t *testing.T) {
	// The CLI path: a full document with kind + seed dispatched in one call.
	res, err := scenario.RunDocument(json.RawMessage(`{"kind": "banking", "seed": 2, "transactions": 300}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "banking" || res.Seed != 2 {
		t.Errorf("envelope = %q/%d", res.Scenario, res.Seed)
	}
	if res.Metrics["completed"] != 300 {
		t.Errorf("completed = %v, want 300", res.Metrics["completed"])
	}
	if res.Events == 0 {
		t.Error("no kernel events recorded")
	}
}

func TestMissingKindDefaultsToDatacenter(t *testing.T) {
	// Backward compatibility: a pre-registry document (no "kind") runs the
	// datacenter scenario.
	res, err := scenario.RunDocument(json.RawMessage(`{
		"machines": 4, "workload": {"jobs": 10}, "horizonSeconds": 3600, "seed": 1
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "datacenter" {
		t.Errorf("scenario = %q, want datacenter", res.Scenario)
	}
}
