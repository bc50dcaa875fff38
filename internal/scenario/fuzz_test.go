package scenario_test

import (
	"encoding/json"
	"testing"

	"mcs/internal/scenario"
)

// FuzzDocument feeds untrusted document bytes through the envelope parser
// and the strict schema check of every registered kind: the input as given,
// then once per kind with its "kind" field replaced. Neither may panic,
// whatever the bytes. The seeds are the golden documents; CI runs a short
// -fuzztime smoke, and `go test` replays the seeds and any committed
// regression inputs under testdata/fuzz.
func FuzzDocument(f *testing.F) {
	for _, g := range loadGoldens(f) {
		f.Add([]byte(g.doc))
	}
	kinds := scenario.List()
	f.Fuzz(func(t *testing.T, doc []byte) {
		_, _ = scenario.ParseCommon(doc)
		_ = scenario.Strict(doc)
		var obj map[string]json.RawMessage
		if json.Unmarshal(doc, &obj) != nil || obj == nil {
			return
		}
		for _, kind := range kinds {
			obj["kind"] = json.RawMessage(`"` + kind + `"`)
			rekinded, err := json.Marshal(obj)
			if err != nil {
				t.Fatal(err)
			}
			_ = scenario.Strict(rekinded)
		}
	})
}
