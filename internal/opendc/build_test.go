package opendc

import (
	"encoding/json"
	"testing"
	"time"

	"mcs/internal/scenario"
)

// Tests of Build, the JSON schema → runnable Scenario step under the
// registered "datacenter" kind.

func TestExampleScenarioBuildsAndRuns(t *testing.T) {
	var cfg ScenarioJSON
	if err := json.Unmarshal([]byte(ExampleJSON), &cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Workload.Jobs = 40 // shrink for test time
	cfg.HorizonSeconds = 7200
	sc, _, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc.FailureSource == nil {
		t.Error("example enables failures but scenario has no failure source")
	}
	if sc.Horizon != 2*time.Hour {
		t.Errorf("horizon=%v", sc.Horizon)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Failed == 0 {
		t.Error("nothing executed")
	}
}

func TestBuildDefaults(t *testing.T) {
	sc, _, err := Build(ScenarioJSON{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Cluster.Machines) != 16 {
		t.Errorf("default machines=%d", len(sc.Cluster.Machines))
	}
	if sc.Sched.Named() != "fcfs/firstfit/easy-backfill" {
		t.Errorf("default policy=%q", sc.Sched.Named())
	}
}

func TestBuildPolicyMatrix(t *testing.T) {
	for _, q := range []string{"fcfs", "sjf", "ljf", "wfp3", "fairshare"} {
		for _, p := range []string{"firstfit", "bestfit", "worstfit", "fastestfit"} {
			for _, m := range []string{"easy", "strict", "greedy"} {
				cfg := ScenarioJSON{}
				cfg.Scheduler.Queue = q
				cfg.Scheduler.Placement = p
				cfg.Scheduler.Mode = m
				if _, _, err := Build(cfg); err != nil {
					t.Errorf("%s/%s/%s: %v", q, p, m, err)
				}
			}
		}
	}
}

func TestBuildMachineClasses(t *testing.T) {
	for _, class := range []string{"commodity", "bignode", "oldgen", "gpu"} {
		cfg := ScenarioJSON{Class: class}
		if _, _, err := Build(cfg); err != nil {
			t.Errorf("class %s: %v", class, err)
		}
	}
}

func TestBuildRejectsUnknowns(t *testing.T) {
	bad := []ScenarioJSON{}
	c := ScenarioJSON{Class: "quantum"}
	bad = append(bad, c)
	c = ScenarioJSON{}
	c.Scheduler.Queue = "psychic"
	bad = append(bad, c)
	c = ScenarioJSON{}
	c.Scheduler.Placement = "teleport"
	bad = append(bad, c)
	c = ScenarioJSON{}
	c.Scheduler.Mode = "yolo"
	bad = append(bad, c)
	c = ScenarioJSON{}
	c.Workload.Pattern = "chaotic"
	bad = append(bad, c)
	c = ScenarioJSON{}
	c.Workload.Shape = "donut"
	bad = append(bad, c)
	c = ScenarioJSON{}
	c.Workload.Trace = "/does/not/exist"
	bad = append(bad, c)
	for i, cfg := range bad {
		if _, _, err := Build(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestFailureModelSelection(t *testing.T) {
	// Single-unit groups are the independent regime; a group-size
	// distribution plus a rack bias the correlated one.
	cfg := ScenarioJSON{}
	cfg.Failures = &scenario.FailuresJSON{MTBF: &scenario.DistJSON{Mean: 3600}}
	sc, _, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc.FailureSource == nil {
		t.Fatal("failures not enabled")
	}
	ov, err := cfg.FailureOverlay()
	if err != nil {
		t.Fatal(err)
	}
	if ov.Model.SameRackBias != 0 {
		t.Errorf("independent regime has rack bias %v", ov.Model.SameRackBias)
	}
	bias := 0.8
	cfg.Failures.GroupSize = &scenario.DistJSON{Dist: "normal", Mean: 8, Sigma: 4}
	cfg.Failures.RackBias = &bias
	sc2, _, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.FailureSource == nil {
		t.Fatal("correlated failures not enabled")
	}
	ov2, err := cfg.FailureOverlay()
	if err != nil {
		t.Fatal(err)
	}
	if ov2.Model.SameRackBias != 0.8 {
		t.Errorf("correlated regime rack bias = %v, want 0.8", ov2.Model.SameRackBias)
	}
}
