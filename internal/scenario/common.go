package scenario

// The common document envelope: the front half every scenario document
// shares. Before this type existed each adapter privately re-declared the
// same header fields ("kind", "seed", "parallel", a workload block, a
// failures block) in its own schema struct; Common promotes them into one
// typed header that adapters embed, so the registry, the sweep expander, and
// the distributed coordinator all parse the same five fields through the
// same type. Sections that ride the header — notably "failures" — are
// therefore available to every kind (and to every JSON-pointer sweep axis)
// without per-adapter parsing code.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"mcs/internal/trace"
)

// WorkloadJSON is the shared "workload" block of a scenario document: the
// synthetic-generation vocabulary (jobs/pattern/shape, resolved through
// internal/workload) together with the trace reference (trace/format,
// resolved through the trace format registry). Kinds that replay traces but
// synthesize their own arrival process (faas, gaming, banking) use only the
// embedded Ref; the datacenter family uses all of it.
type WorkloadJSON struct {
	Jobs    int    `json:"jobs"`
	Pattern string `json:"pattern"`
	Shape   string `json:"shape"`
	trace.Ref
}

// Common is the typed header of every scenario document. Adapters embed it
// at the top of their ScenarioJSON instead of re-declaring the fields; the
// registry front half (ParseCommon / New / RunDocument), the sweep
// expander, and internal/dist all route through it.
type Common struct {
	// Kind selects the registered scenario; empty means DefaultKind for
	// backward compatibility with pre-registry documents.
	Kind string `json:"kind"`
	// Seed drives the kernel and every document-seeded generator.
	Seed int64 `json:"seed"`
	// Parallel bounds intra-run worker pools (per-site kernels, algorithm
	// shards, sweep cells; 0 = GOMAXPROCS, 1 = sequential). It affects
	// wall-clock only, never result bytes, so it is freely sweepable.
	Parallel int `json:"parallel"`
	// Workload is the shared workload block (synthetic vocabulary + trace
	// reference); kinds without a first-class workload ignore it.
	Workload WorkloadJSON `json:"workload"`
	// Failures is the sweepable failure-injection overlay section; nil when
	// the document carries none. Kinds that cannot apply unavailability
	// windows to their capacity model must reject a non-nil section.
	Failures *FailuresJSON `json:"failures"`
}

// DefaultKind is assumed when a scenario document carries no "kind" field.
const DefaultKind = "datacenter"

// ParseCommon extracts the typed document header, applying the
// backward-compatible default kind. It is the one parse point for the
// envelope: runners, the sweep expander, and distributed coordinators all
// call it.
func ParseCommon(raw json.RawMessage) (Common, error) {
	var c Common
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("scenario: parse envelope: %w", pointerError(raw, err))
	}
	if c.Kind == "" {
		c.Kind = DefaultKind
	}
	return c, nil
}

// RejectParallel is the guard for kinds with no intra-run shard axis: a
// document that sets "parallel" on them errors loudly instead of silently
// no-opping — a sweep over /parallel on such a kind would otherwise burn
// cells measuring nothing. Mirrors RejectFailures.
func (c Common) RejectParallel(kind string) error {
	if c.Parallel != 0 {
		return fmt.Errorf("scenario %q does not shard and ignores parallel; remove the field (sharding kinds: federation, graph, sweep)", kind)
	}
	return nil
}

// Schemer is optionally implemented by scenarios that publish the Go value
// of their full document schema, enabling strict parsing: Strict decodes the
// document into a fresh schema value with unknown fields disallowed, so a
// misspelled field errors with the offending key instead of being silently
// ignored (mcsim -strict).
type Schemer interface {
	// Schema returns a pointer to a zero value of the document schema.
	Schema() any
}

// Strict re-parses a full scenario document against the schema its kind
// publishes, rejecting unknown fields anywhere in the document. For a sweep
// document every grid assignment is checked against the base kind's
// schema, which catches misspelled grid paths as well — a grid axis that
// names a field no schema declares would otherwise sweep nothing,
// silently. Repetition copies of an assignment differ only in /seed, so
// only the first (#0) is decoded; it is also the first of them to fail.
func Strict(raw json.RawMessage) error {
	env, err := ParseCommon(raw)
	if err != nil {
		return err
	}
	if err := strictKind(env.Kind, raw); err != nil {
		return err
	}
	if env.Kind != "sweep" {
		return nil
	}
	cfg, baseKind, cells, err := ExpandSweepDocument(raw)
	if err != nil {
		return err
	}
	// ExpandGrid emits repetitions innermost, reps cells per assignment.
	reps := max(cfg.Repetitions, 1)
	for i := 0; i < len(cells); i += reps {
		cell := cells[i]
		if err := strictKind(baseKind, cell.Doc); err != nil {
			if cell.Key == "" {
				return err
			}
			return fmt.Errorf("cell %q: %w", cell.Key, err)
		}
	}
	return nil
}

// strictKind decodes raw into kind's published schema with unknown fields
// disallowed.
func strictKind(kind string, raw json.RawMessage) error {
	factory, ok := Lookup(kind)
	if !ok {
		return fmt.Errorf("scenario: unknown kind %q (registered: %v)", kind, List())
	}
	sch, ok := factory().(Schemer)
	if !ok {
		return fmt.Errorf("scenario %q does not publish a schema (strict parsing unavailable)", kind)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(sch.Schema()); err != nil {
		return fmt.Errorf("scenario %q: strict parse: %w", kind, pointerError(raw, err))
	}
	return nil
}

// pointerError rewrites a JSON type error to name the offending value by
// its JSON pointer in the document (/seed, /sites/1/machines) instead of
// the Go struct field it failed to fill. Other errors pass through. The
// decoder reports type errors only on syntactically valid input, so the
// walk over raw meets no token error.
func pointerError(raw []byte, err error) error {
	var te *json.UnmarshalTypeError
	if !errors.As(err, &te) {
		return err
	}
	if ptr, ok := pointerAt(json.NewDecoder(bytes.NewReader(raw)), "", te.Offset); ok && ptr != "" {
		return fmt.Errorf("json: %s: cannot unmarshal %s into %s", ptr, te.Value, te.Type)
	}
	return err
}

var pointerEscaper = strings.NewReplacer("~", "~0", "/", "~1")

// pointerAt walks the value dec reads next, whose pointer is path, to the
// first value in document order that reaches byte offset off, where the
// decoder reports a type error: the end of a mistyped literal, or just past
// the opening of a mistyped object or array.
func pointerAt(dec *json.Decoder, path string, off int64) (string, bool) {
	tok, err := dec.Token()
	if err != nil || dec.InputOffset() >= off {
		return path, err == nil
	}
	if tok != json.Delim('{') && tok != json.Delim('[') {
		return "", false
	}
	for i := 0; dec.More(); i++ {
		child := path + "/" + strconv.Itoa(i)
		if tok == json.Delim('{') {
			key, _ := dec.Token() // an object key: a string on valid input
			name, _ := key.(string)
			child = path + "/" + pointerEscaper.Replace(name)
		}
		if p, ok := pointerAt(dec, child, off); ok {
			return p, true
		}
	}
	dec.Token() // the closing delimiter
	return "", false
}
