// Package experiments implements the paper experiments that are not yet
// scenario documents: one per figure (F1–F5) and table (T1–T5) of the paper
// plus the derived quantitative experiments D3–D6. Each returns a Report,
// which cmd/mcsbench prints. D1, D2 and the F5 keep-warm sweep run as sweep
// documents under examples/paper; their claims are tested here against the
// results pinned in the scenario golden corpus.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// Report is the printable outcome of one experiment.
type Report struct {
	ID    string
	Title string
	// Headline states the qualitative claim the experiment checks, in the
	// paper's terms.
	Headline string
	Columns  []string
	Rows     [][]string
	Notes    []string
}

// Fprint renders the report as an aligned text table. Columns are padded
// by display width, counted in runes, so a multi-byte cell such as T4's
// "§" header lines up with the cells below it.
func (r *Report) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	if r.Headline != "" {
		fmt.Fprintf(w, "claim: %s\n", r.Headline)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(cell))
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = pad(cell, w)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	return nil
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// String renders the report to a string.
func (r *Report) String() string {
	var sb strings.Builder
	_ = r.Fprint(&sb)
	return sb.String()
}

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks workload sizes so the experiment finishes in unit-test
	// time; the full sizes are used by cmd/mcsbench and the benches.
	Quick bool
	// Seed drives all randomness (0 uses the per-experiment default).
	Seed int64
}

func (o Options) seed(def int64) int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

func (o Options) scale(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Runner executes one experiment.
type Runner func(Options) (*Report, error)

// Registry maps experiment IDs to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"F1": F1BigDataEcosystem,
		"F2": F2EvolutionComposition,
		"F3": F3DatacenterRefArch,
		"F4": F4GamingEcosystem,
		"F5": F5FaaSRefArch,
		"T1": T1Overview,
		"T2": T2Principles,
		"T3": T3Challenges,
		"T4": T4UseCases,
		"T5": T5FieldComparison,
		"D3": D3ElasticityMetrics,
		"D4": D4GraphPAD,
		"D5": D5SocialAware,
		"D6": D6PerfVariability,
	}
}

// IDs returns the experiment identifiers in canonical order.
func IDs() []string {
	ids := make([]string, 0, 16)
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Sort F, T, D blocks in paper order: F1..F5, T1..T5, D3..D6.
	order := func(id string) int {
		rank := map[byte]int{'F': 0, 'T': 1, 'D': 2}[id[0]]
		return rank*100 + int(id[1]-'0')
	}
	sort.Slice(ids, func(i, j int) bool { return order(ids[i]) < order(ids[j]) })
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, opts Options) (*Report, error) {
	runner, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return runner(opts)
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }
