package banking_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"mcs/internal/banking"
	"mcs/internal/scenario"
)

func TestBankingScenarioExampleRuns(t *testing.T) {
	res, err := scenario.RunDocument(json.RawMessage(banking.ExampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "banking" {
		t.Errorf("scenario = %q", res.Scenario)
	}
	if res.Metrics["completed"] != 5000 {
		t.Errorf("completed = %v, want 5000", res.Metrics["completed"])
	}
	if res.Labels["discipline"] != "edf" {
		t.Errorf("discipline label = %q", res.Labels["discipline"])
	}
	if res.Metrics["p95LatencySeconds"] < res.Metrics["meanLatencySeconds"] {
		t.Errorf("p95 %v below mean %v", res.Metrics["p95LatencySeconds"], res.Metrics["meanLatencySeconds"])
	}
	if res.Events == 0 {
		t.Error("no kernel events recorded")
	}
}

func TestBankingScenarioDisciplines(t *testing.T) {
	doc := func(disc string) json.RawMessage {
		return json.RawMessage(`{"kind": "banking", "transactions": 800, "instantShare": 0.4, "discipline": "` + disc + `", "seed": 9}`)
	}
	for _, disc := range []string{"fcfs", "edf"} {
		res, err := scenario.RunDocument(doc(disc))
		if err != nil {
			t.Fatalf("%s: %v", disc, err)
		}
		if res.Labels["discipline"] != disc {
			t.Errorf("discipline label = %q, want %q", res.Labels["discipline"], disc)
		}
		if res.Metrics["completed"] != 800 {
			t.Errorf("%s: completed = %v", disc, res.Metrics["completed"])
		}
	}
}

func TestBankingScenarioSeedStable(t *testing.T) {
	cfg := json.RawMessage(`{"transactions": 600, "instantShare": 0.25, "discipline": "edf"}`)
	run := func() []byte {
		res, err := scenario.Run("banking", 13, cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := run(), run(); string(a) != string(b) {
		t.Errorf("same-seed runs differ:\n  %s\n  %s", a, b)
	}
}

func TestBankingScenarioRejectsBadConfig(t *testing.T) {
	for name, doc := range map[string]string{
		"share too high": `{"kind": "banking", "instantShare": 1.5}`,
		"share negative": `{"kind": "banking", "instantShare": -0.1}`,
		"bad discipline": `{"kind": "banking", "discipline": "lifo"}`,
		"malformed json": `{"kind": "banking", "transactions": "many"}`,
	} {
		if _, err := scenario.RunDocument(json.RawMessage(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBankingSourceWorkloadMatchesGenerator: the export form a synthetic
// document builds on demand is exactly GenerateWorkload on the document
// seed, so -export-trace writes the stream the run cleared.
func TestBankingSourceWorkloadMatchesGenerator(t *testing.T) {
	s, err := scenario.New("banking", json.RawMessage(`{"kind": "banking", "seed": 21, "transactions": 3000, "instantShare": 0.35}`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.(scenario.WorkloadProvider).SourceWorkload()
	if err != nil {
		t.Fatal(err)
	}
	want := banking.GenerateWorkload(3000, 0.35, rand.New(rand.NewSource(21)))
	if !reflect.DeepEqual(got, want) {
		t.Error("SourceWorkload diverges from GenerateWorkload on the document seed")
	}
}
