package social

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"mcs/internal/scenario"
	"mcs/internal/sim"
	"mcs/internal/workload"
)

func TestSocialScenarioExampleRuns(t *testing.T) {
	res, err := scenario.RunDocument(json.RawMessage(ExampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "social" {
		t.Errorf("scenario = %q", res.Scenario)
	}
	if res.Metrics["jobs"] != 400 {
		t.Errorf("jobs = %v", res.Metrics["jobs"])
	}
	if res.Metrics["actors"] == 0 || res.Metrics["ties"] == 0 {
		t.Errorf("empty graph: actors=%v ties=%v", res.Metrics["actors"], res.Metrics["ties"])
	}
	if res.Metrics["communities"] == 0 {
		t.Error("no communities detected")
	}
	if res.Events != 400 {
		t.Errorf("events = %d, want one per submission", res.Events)
	}
}

// TestOnlineGraphMatchesFromWorkload pins the event-driven graph
// construction to the batch FromWorkload reference.
func TestOnlineGraphMatchesFromWorkload(t *testing.T) {
	gen := workload.DefaultGeneratorConfig()
	gen.Jobs = 300
	w, err := workload.Generate(gen, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	window := 5 * time.Minute
	want := FromWorkload(w, window)

	s := &socialScenario{}
	if err := s.Configure(json.RawMessage(`{"windowSeconds": 300}`)); err != nil {
		t.Fatal(err)
	}
	pg, names, err := s.buildPairGraphOn(sim.New(1), w)
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumActors() != len(want.Actors()) {
		t.Fatalf("actors: %d vs %d", pg.NumActors(), len(want.Actors()))
	}
	if pg.NumEdges() != want.NumEdges() {
		t.Fatalf("edges: %d vs %d", pg.NumEdges(), want.NumEdges())
	}
	for id, name := range names {
		if !pg.Present(int32(id)) {
			t.Errorf("interned user %s is not registered", name)
		}
		if got, ref := pg.Degree(int32(id)), want.Degree(name); got != ref {
			t.Errorf("degree(%s): %v vs %v", name, got, ref)
		}
	}
	pg.ForEachEdge(func(a, b int32, w float64) {
		if ref := want.TieStrength(names[a], names[b]); w != ref {
			t.Errorf("tie(%s,%s): %v vs %v", names[a], names[b], w, ref)
		}
	})
}

func TestSocialScenarioRejectsBadConfig(t *testing.T) {
	if _, err := scenario.RunDocument(json.RawMessage(`{"kind": "social", "pattern": "chaotic"}`)); err == nil {
		t.Error("unknown pattern accepted")
	}
	if _, err := scenario.RunDocument(json.RawMessage(`{"kind": "social", "dominantShare": 1.5}`)); err == nil {
		t.Error("out-of-range dominantShare accepted")
	}
}
