package scenario_test

import (
	"encoding/json"
	"errors"
	"testing"

	"mcs/internal/scenario"
	"mcs/internal/sim"
)

// TestEnginesStopOnEventBudget: the datacenter, gaming and faas engines,
// which once returned a truncated report as success, leave sim.ErrBudget
// on a kernel whose budget their example outruns, the error
// RunScenarioObserved returns in place of the report.
func TestEnginesStopOnEventBudget(t *testing.T) {
	for _, kind := range []string{"datacenter", "gaming", "faas"} {
		factory, ok := scenario.Lookup(kind)
		if !ok {
			t.Fatalf("kind %q not registered", kind)
		}
		s, err := scenario.New(kind, json.RawMessage(factory().(scenario.Exampler).Example()))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		k := sim.New(1)
		k.SetMaxEvents(200)
		if _, err := s.Run(k); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !errors.Is(k.Err(), sim.ErrBudget) {
			t.Errorf("%s: kernel error %v after %d events, want sim.ErrBudget", kind, k.Err(), k.Processed())
		}
	}
}
