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
	"reflect"
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
		return c, fmt.Errorf("scenario: parse envelope: %w", pointerError(raw, nil, err))
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

// Decode is the one decode of a scenario document: it fills v, a pointer
// to the kind's schema, from raw with unknown fields disallowed, so a
// misspelled field fails the run instead of leaving its default in place,
// and names a mistyped value, or an unknown field below the top level, by
// its JSON pointer. Every kind's Configure
// and the sweep expander decode through it; only ParseCommon, which reads
// just the envelope of a document that carries more, stays lenient.
func Decode(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return pointerError(raw, reflect.TypeOf(v), err)
	}
	if len(bytes.Trim(raw[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("json: invalid data after top-level value")
	}
	return nil
}

// check decodes raw into the schema kind registered, configuring nothing,
// so it loads no trace file and builds no model.
func check(kind string, raw json.RawMessage) error {
	e, ok := lookup(kind)
	if !ok {
		return fmt.Errorf("scenario: unknown kind %q (registered: %v)", kind, List())
	}
	if err := e.check(raw); err != nil {
		return fmt.Errorf("scenario %q: strict parse: %w", kind, err)
	}
	return nil
}

// Strict decodes a full scenario document against the schema its kind
// registered without configuring it. A sweep document is checked as its
// expansion checks it: the sweep header, then one cell per grid
// assignment against the base kind's schema.
func Strict(raw json.RawMessage) error {
	env, err := ParseCommon(raw)
	if err != nil {
		return err
	}
	if env.Kind == "sweep" {
		_, _, _, err := ExpandSweepDocument(raw)
		return err
	}
	return check(env.Kind, raw)
}

// pointerError rewrites a JSON type error to name the offending value by
// its JSON pointer in the document (/seed, /sites/1/machines) instead of
// the Go struct field it failed to fill, and an unknown field nested below
// the top level (/sites/1/machnes), where the decoder names only the key,
// by its pointer found against schema, the type decoded into. Other errors
// pass through. The decoder reports these errors only on syntactically
// valid input, so the walks over raw meet no token error.
func pointerError(raw []byte, schema reflect.Type, err error) error {
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		if ptr, ok := pointerAt(json.NewDecoder(bytes.NewReader(raw)), "", te.Offset); ok && ptr != "" {
			return fmt.Errorf("json: %s: cannot unmarshal %s into %s", ptr, te.Value, te.Type)
		}
		return err
	}
	quoted, ok := strings.CutPrefix(err.Error(), "json: unknown field ")
	if !ok {
		return err
	}
	name, uerr := strconv.Unquote(quoted)
	ptr, found := unknownAt(json.NewDecoder(bytes.NewReader(raw)), schema, "")
	if uerr != nil || !found || strings.Count(ptr, "/") < 2 || !strings.HasSuffix(ptr, "/"+pointerEscaper.Replace(name)) {
		return err
	}
	return fmt.Errorf("json: %s: unknown field %s", ptr, quoted)
}

var unmarshalerType = reflect.TypeFor[json.Unmarshaler]()

// unknownAt walks the value dec reads next, whose pointer is path, against
// type t and returns the pointer of the first object key in document order
// that its level of t does not declare. A nil t, an interface or a type
// with its own UnmarshalJSON accepts anything below it.
func unknownAt(dec *json.Decoder, t reflect.Type, path string) (string, bool) {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t != nil && (t.Kind() == reflect.Interface || reflect.PointerTo(t).Implements(unmarshalerType)) {
		t = nil
	}
	tok, err := dec.Token()
	if err != nil || (tok != json.Delim('{') && tok != json.Delim('[')) {
		return "", false
	}
	for i := 0; dec.More(); i++ {
		child := path + "/" + strconv.Itoa(i)
		var ct reflect.Type
		if t != nil && (t.Kind() == reflect.Slice || t.Kind() == reflect.Array || t.Kind() == reflect.Map) {
			ct = t.Elem()
		}
		if tok == json.Delim('{') {
			key, _ := dec.Token() // an object key: a string on valid input
			name, _ := key.(string)
			child = path + "/" + pointerEscaper.Replace(name)
			if t != nil && t.Kind() == reflect.Struct {
				var ok bool
				if ct, ok = fieldType(t, name); !ok {
					return child, true
				}
			}
		}
		if p, ok := unknownAt(dec, ct, child); ok {
			return p, true
		}
	}
	dec.Token() // the closing delimiter
	return "", false
}

// fieldType returns the type of struct t's field that the JSON key name
// fills, matching names as encoding/json does (its tag name or Go name,
// case-insensitively, through embedded structs).
func fieldType(t reflect.Type, name string) (reflect.Type, bool) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag == "-" {
			continue
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if f.Anonymous && tag == "" && ft.Kind() == reflect.Struct {
			if typ, ok := fieldType(ft, name); ok {
				return typ, true
			}
			continue
		}
		if !f.IsExported() {
			continue
		}
		if tag == "" {
			tag = f.Name
		}
		if strings.EqualFold(tag, name) {
			return f.Type, true
		}
	}
	return nil, false
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
