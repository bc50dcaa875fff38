package scenario

// The "sweep" meta-scenario: the OpenDC-style "what-if portfolio" workflow.
// A sweep document names a base scenario document and a parameter grid —
// JSON-pointer-style paths mapped to value lists — and the engine expands
// the cross product, runs every cell through the ordinary registry path on
// its own kernel (independent kernels are safe to run side by side, so the
// cells shard across a bounded worker pool), and emits one combined result:
// the per-cell envelopes in deterministic grid order plus a cross-cell
// summary of every metric. Per-cell seeds are derived by hashing the cell's
// canonical assignment string into the base seed, so a cell's seed depends
// only on its own coordinates — growing the grid never reshuffles the
// seeds of existing cells, and the report bytes are identical for any
// worker count.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"mcs/internal/par"
	"mcs/internal/sim"
	"mcs/internal/stats"
)

// SweepJSON is the JSON schema of the "sweep" meta-scenario. The header
// fields (kind, seed, parallel — bounding the cell worker pool) come from
// the embedded Common; a failures section belongs in the base document
// (where it sweeps like any other field), never at the sweep level.
type SweepJSON struct {
	Common
	// Base is the scenario document every cell starts from; its "kind"
	// selects the swept scenario (nested sweeps are rejected).
	Base json.RawMessage `json:"base"`
	// Grid maps JSON-pointer-style paths ("/machines", "/scheduler/queue",
	// "/sites/0/clusters/1/count") to the list of values to sweep.
	// Intermediate objects are created as needed; numeric segments index
	// existing arrays (out-of-range indices are an error — arrays never
	// grow). Sweeping "/workload/trace" turns a sweep into a
	// trace-portfolio campaign; sweeping "/failures/..." turns it into a
	// resilience campaign.
	Grid map[string][]json.RawMessage `json:"grid"`
	// Repetitions runs each grid cell this many times with distinct
	// derived seeds (default 1), turning one sweep into a small campaign.
	Repetitions int `json:"repetitions"`
}

// SweepExampleJSON is a ready-to-run sweep document: a 2×2 banking
// portfolio over queue discipline and instant-payment share.
const SweepExampleJSON = `{
  "kind": "sweep",
  "seed": 17,
  "base": {"kind": "banking", "transactions": 800, "instantShare": 0.3, "discipline": "edf"},
  "grid": {
    "/discipline": ["edf", "fcfs"],
    "/instantShare": [0.1, 0.5]
  }
}`

// Cell is one point of the expanded grid: the concrete document to run and
// the canonical assignment key that names it in reports and seed derivation.
type Cell struct {
	// Key is "path=value,path=value" over the sorted grid paths, plus a
	// "#rep" suffix when Repetitions > 1.
	Key string
	// Doc is the base document with the cell's assignments applied.
	Doc json.RawMessage
	// Seed is the derived per-cell kernel/config seed.
	Seed int64
}

// MaxSweepCells bounds the cells one sweep document may expand to
// (repetitions included), so a hostile or mistyped grid is refused before
// any cell is built.
const MaxSweepCells = 1 << 16

// ExpandGrid expands the cross product of a sweep's grid against its base
// document into deterministic cell order: paths sorted lexicographically,
// the last path cycling fastest (odometer order), repetitions innermost.
// An empty grid yields the base document as a single cell.
func ExpandGrid(cfg SweepJSON) ([]Cell, error) {
	var base map[string]any
	if len(cfg.Base) == 0 {
		return nil, fmt.Errorf("sweep: missing base document")
	}
	// UseNumber keeps numeric literals verbatim through the
	// unmarshal/apply/marshal round trip — float64 would silently round
	// int64-range values such as explicitly swept seeds.
	dec := json.NewDecoder(bytes.NewReader(cfg.Base))
	dec.UseNumber()
	if err := dec.Decode(&base); err != nil {
		return nil, fmt.Errorf("sweep: parse base: %w", err)
	}
	paths := make([]string, 0, len(cfg.Grid))
	for p, vals := range cfg.Grid {
		if len(vals) == 0 {
			return nil, fmt.Errorf("sweep: grid path %q has no values", p)
		}
		paths = append(paths, p)
	}
	sort.Strings(paths)
	reps := cfg.Repetitions
	if reps <= 0 {
		reps = 1
	}
	tooMany := fmt.Errorf("sweep: grid expands to more than %d cells", MaxSweepCells)
	if reps > MaxSweepCells {
		return nil, tooMany
	}
	total := reps
	for _, p := range paths {
		// total ≤ MaxSweepCells here, so the product cannot overflow.
		if total *= len(cfg.Grid[p]); total > MaxSweepCells {
			return nil, tooMany
		}
	}
	cells := make([]Cell, 0, total)
	idx := make([]int, len(paths))
	for {
		parts := make([]string, len(paths))
		for i, p := range paths {
			parts[i] = fmt.Sprintf("%s=%s", p, compactJSON(cfg.Grid[p][idx[i]]))
		}
		assignKey := strings.Join(parts, ",")
		// The repetitions of an assignment share its document and differ
		// only in "seed", which each one sets before it is marshalled.
		doc, err := applyCell(base, paths, idx, cfg.Grid)
		if err != nil {
			return nil, err
		}
		// A grid that sweeps /seed explicitly owns the seed: a single run
		// gets the exact swept value; repetitions re-derive from it (keyed
		// by #rep) so reps stay distinct runs either way.
		seedBase, swept := cfg.Seed, gridHasSeed(paths)
		if swept {
			n, ok := doc["seed"].(json.Number)
			if !ok {
				return nil, fmt.Errorf("sweep: swept seed is not a number: %v", doc["seed"])
			}
			if seedBase, err = n.Int64(); err != nil {
				return nil, fmt.Errorf("sweep: swept seed %v: %w", n, err)
			}
		}
		for rep := 0; rep < reps; rep++ {
			key := assignKey
			if reps > 1 {
				if key != "" {
					key += ","
				}
				key += fmt.Sprintf("#%d", rep)
			}
			seed := seedBase
			if !swept || reps > 1 {
				seed = DeriveSeed(seedBase, key)
				doc["seed"] = seed
			}
			raw, err := json.Marshal(doc)
			if err != nil {
				return nil, fmt.Errorf("sweep: cell %q: %w", key, err)
			}
			cells = append(cells, Cell{Key: key, Doc: raw, Seed: seed})
		}
		// Odometer increment, last path fastest.
		i := len(paths) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(cfg.Grid[paths[i]]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return cells, nil
}

func gridHasSeed(paths []string) bool {
	for _, p := range paths {
		if p == "/seed" || p == "seed" {
			return true
		}
	}
	return false
}

// applyCell deep-copies the base document and sets each grid path to the
// cell's value.
func applyCell(base map[string]any, paths []string, idx []int, grid map[string][]json.RawMessage) (map[string]any, error) {
	doc := deepCopy(base).(map[string]any)
	for i, p := range paths {
		var val any
		dec := json.NewDecoder(bytes.NewReader(grid[p][idx[i]]))
		dec.UseNumber()
		if err := dec.Decode(&val); err != nil {
			return nil, fmt.Errorf("sweep: grid %q value %d: %w", p, idx[i], err)
		}
		if err := setPointer(doc, p, val); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// setPointer sets a JSON-pointer-style path ("/a/b" or "a/b") in a document
// of nested objects and arrays, creating intermediate objects as needed.
// A segment applied to an array must be a valid index into the existing
// elements ("/sites/0/machines"); arrays are never grown, so an
// out-of-range index is a configuration error, reported as such.
func setPointer(doc map[string]any, path string, val any) error {
	trimmed := strings.TrimPrefix(path, "/")
	if trimmed == "" {
		return fmt.Errorf("sweep: empty grid path")
	}
	segs := strings.Split(trimmed, "/")
	var cur any = doc
	for i, seg := range segs {
		last := i == len(segs)-1
		switch node := cur.(type) {
		case map[string]any:
			if last {
				node[seg] = val
				return nil
			}
			next, ok := node[seg]
			if !ok || next == nil {
				m := map[string]any{}
				node[seg] = m
				cur = m
				continue
			}
			cur = next
		case []any:
			idx, err := strconv.Atoi(seg)
			if err != nil {
				return fmt.Errorf("sweep: path %q: segment %q indexes an array but is not a number", path, seg)
			}
			if idx < 0 || idx >= len(node) {
				return fmt.Errorf("sweep: path %q: index %d out of range for array of %d elements", path, idx, len(node))
			}
			if last {
				node[idx] = val
				return nil
			}
			cur = node[idx]
		default:
			return fmt.Errorf("sweep: path %q crosses non-object field %q", path, segs[i-1])
		}
	}
	return nil
}

func deepCopy(v any) any {
	switch t := v.(type) {
	case map[string]any:
		m := make(map[string]any, len(t))
		for k, e := range t {
			m[k] = deepCopy(e)
		}
		return m
	case []any:
		s := make([]any, len(t))
		for i, e := range t {
			s[i] = deepCopy(e)
		}
		return s
	default:
		return v
	}
}

// DeriveSeed mixes the base seed with a cell's canonical key via FNV-1a:
// stable across grid growth and independent of execution order. Exported so
// external campaign drivers (internal/dist) can reproduce — and document —
// the exact per-cell seed a sweep would use.
func DeriveSeed(base int64, cellKey string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", base, cellKey)
	seed := int64(h.Sum64() & 0x7fffffffffffffff)
	if seed == 0 {
		seed = 1
	}
	return seed
}

func compactJSON(raw json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}

type sweepScenario struct {
	cfg      SweepJSON
	cells    []Cell
	baseKind string
	parallel int
}

func init() {
	Register[SweepJSON]("sweep", SweepExampleJSON, func() Scenario { return &sweepScenario{} })
}

// Name implements Scenario.
func (s *sweepScenario) Name() string { return "sweep" }

// Configure implements Scenario.
func (s *sweepScenario) Configure(raw json.RawMessage) error {
	cfg, baseKind, cells, err := ExpandSweepDocument(raw)
	if err != nil {
		return err
	}
	s.cfg = cfg
	s.cells = cells
	s.baseKind = baseKind
	// Pool-size defaulting (0 = GOMAXPROCS, capped at the cell count) is
	// par.Workers' job; keep the document value verbatim.
	s.parallel = cfg.Parallel
	return nil
}

// ExpandSweepDocument parses and validates a full "sweep" scenario document
// and expands its grid: the parsed config, the base scenario kind, and the
// cell list in deterministic grid order. It is the shared front half of
// every sweep driver — the in-process meta-scenario above and external
// campaign runners (internal/dist) both start here, so they agree on cell
// coordinates, documents, and derived seeds by construction, and both
// refuse a campaign with a misspelled field before any cell runs or is
// dispatched.
func ExpandSweepDocument(raw json.RawMessage) (SweepJSON, string, []Cell, error) {
	var cfg SweepJSON
	if err := Decode(raw, &cfg); err != nil {
		return cfg, "", nil, err
	}
	if cfg.Failures != nil {
		return cfg, "", nil, fmt.Errorf("sweep: the failures overlay belongs in the base document (sweep it via grid paths like \"/failures/mtbf/mean\"), not at the sweep level")
	}
	env, err := ParseCommon(cfg.Base)
	if err != nil {
		return cfg, "", nil, fmt.Errorf("sweep: base: %w", err)
	}
	if env.Kind == "sweep" {
		return cfg, "", nil, fmt.Errorf("sweep: nested sweeps are not supported")
	}
	if _, ok := Lookup(env.Kind); !ok {
		return cfg, "", nil, fmt.Errorf("sweep: base kind %q not registered (registered: %v)", env.Kind, List())
	}
	cells, err := ExpandGrid(cfg)
	if err != nil {
		return cfg, "", nil, err
	}
	// Every cell is checked against the base kind's schema, which catches
	// a misspelled grid path too: it would otherwise sweep nothing. The
	// repetitions of an assignment differ only in /seed, and ExpandGrid
	// emits them innermost, so rep #0 of each assignment is decoded. The
	// check only decodes: a coordinator never loads a trace file that only
	// its workers have.
	for i := 0; i < len(cells); i += max(cfg.Repetitions, 1) {
		if err := check(env.Kind, cells[i].Doc); err != nil {
			if cells[i].Key == "" {
				return cfg, "", nil, err
			}
			return cfg, "", nil, fmt.Errorf("cell %q: %w", cells[i].Key, err)
		}
	}
	return cfg, env.Kind, cells, nil
}

// RunCell executes one expanded sweep cell through the ordinary registry
// path and labels the envelope with the cell's coordinates. The in-process
// sweep worker pool and distributed workers both route through it, which is
// what makes a distributed combined report byte-identical to a local one.
func RunCell(cell Cell) (*Result, error) {
	env, err := ParseCommon(cell.Doc)
	if err != nil {
		return nil, err
	}
	res, err := Run(env.Kind, cell.Seed, cell.Doc)
	if err != nil {
		return nil, fmt.Errorf("cell %q: %w", cell.Key, err)
	}
	if res.Labels == nil {
		res.Labels = map[string]string{}
	}
	res.Labels["cell"] = cell.Key
	return res, nil
}

// Run implements Scenario: execute every cell on its own kernel, sharded
// across the repository's one bounded ordered-parallel pool (par.MapOrdered
// — the same primitive the federation's per-site kernels and the graph
// scenario's algorithm shards ride), then assemble the combined report in
// grid order. Result order is fixed by cell index, so scheduling never
// leaks into the report. The runner's kernel is unused (each cell gets a
// fresh kernel through the ordinary Run path); the envelope's event count
// sums the cells.
func (s *sweepScenario) Run(_ *sim.Kernel) (*Result, error) {
	results, err := par.MapOrdered(len(s.cells), s.parallel, func(i int) (*Result, error) {
		return RunCell(s.cells[i])
	})
	if err != nil {
		return nil, err
	}
	return CombineSweep(s.baseKind, s.cfg.Repetitions, results), nil
}

// CombineSweep assembles the combined sweep report from per-cell result
// envelopes in grid order: the envelopes travel in Cells, and Metrics
// carries the cross-cell summary — every metric that appears in any cell
// gets mean/min/max over the cells that report it, or, for a campaign with
// repetitions, mean ± 95% confidence-interval half-width, the form
// EXPERIMENTS-style figures quote. The CI pools variance *within*
// assignment groups (cells are in grid order with repetitions innermost,
// so each assignment's replicates are contiguous): it measures replication
// uncertainty of a grid point's mean, never the systematic spread between
// grid points. Values are accumulated in grid order, so the summary bytes
// depend only on the cell results — not on worker count, shard size, or
// completion order. Distributed drivers (internal/dist) call this with
// results gathered from remote workers; because it is the same function
// the in-process sweep uses, the combined reports are byte-identical.
func CombineSweep(baseKind string, repetitions int, results []*Result) *Result {
	byMetric := map[string][]float64{}
	var events uint64
	for _, res := range results {
		events += res.Events
		for name, v := range res.Metrics {
			byMetric[name] = append(byMetric[name], v)
		}
	}
	summary := map[string]float64{"cells": float64(len(results))}
	for name, vals := range byMetric {
		sm := stats.Summarize(vals)
		summary[name+".mean"] = sm.Mean
		if repetitions > 1 {
			if len(vals)%repetitions == 0 {
				summary[name+".ci95"] = stats.CI95Pooled(vals, len(vals)/repetitions)
			} else {
				// A metric absent from some cells has no group
				// structure to pool; fall back to the plain CI.
				summary[name+".ci95"] = stats.CI95(vals)
			}
		} else {
			summary[name+".min"] = sm.Min
			summary[name+".max"] = sm.Max
		}
	}
	return &Result{
		Metrics: summary,
		Labels:  map[string]string{"base": baseKind},
		Events:  events,
		Cells:   results,
	}
}
