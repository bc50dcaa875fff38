// Package ecosystem is the core of the MCS toolkit: it operationalizes the
// paper's central concepts. A computer ecosystem (paper §2.1) is modeled as
// an assembly of components drawn from layered reference architectures, with
// non-functional properties (NFRs, P3) that compose across the assembly, and
// with the Ecosystem Navigation problem (C9) — comparison, selection, and
// composition of components on behalf of the user — solved over component
// catalogs.
//
// The package also encodes, as checked data, the paper's own artifacts: the
// big-data ecosystem of Figure 1, the technology-evolution lineage of
// Figure 2, the datacenter reference architecture of Figure 3, the gaming
// architecture of Figure 4, the FaaS reference architecture of Figure 5, and
// the taxonomies of Tables 1–5.
package ecosystem

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Capability is a named functional capability a component provides or
// requires (e.g. "sql", "dataflow-exec", "block-storage").
type Capability string

// Metric names a non-functional property (paper P3). The composition
// semantics of each metric are defined by its CompositionRule.
type Metric string

// The standard NFR metrics used across the toolkit.
const (
	MetricLatencyMS    Metric = "latency_ms"    // adds along the stack
	MetricThroughput   Metric = "throughput"    // bottleneck (min)
	MetricAvailability Metric = "availability"  // multiplies
	MetricCostPerHour  Metric = "cost_per_hour" // adds
)

// CompositionRule defines how a metric composes over an assembly.
type CompositionRule int

// Composition rules.
const (
	ComposeSum CompositionRule = iota + 1
	ComposeMin
	ComposeProduct
)

// RuleFor returns the composition rule of a metric; unknown metrics compose
// as bottlenecks (min), the conservative choice.
func RuleFor(m Metric) CompositionRule {
	switch m {
	case MetricLatencyMS, MetricCostPerHour:
		return ComposeSum
	case MetricAvailability:
		return ComposeProduct
	default:
		return ComposeMin
	}
}

// HigherIsBetter reports the preferred direction of a metric.
func HigherIsBetter(m Metric) bool {
	switch m {
	case MetricLatencyMS, MetricCostPerHour:
		return false
	default:
		return true
	}
}

// NFR is a component's non-functional property sheet.
type NFR map[Metric]float64

// Component is one ecosystem constituent: a system occupying a layer of a
// reference architecture, providing and requiring capabilities, with an NFR
// sheet (paper §2.1: constituents are autonomous, built by multiple
// developers, and must fit together despite not being designed end-to-end).
type Component struct {
	Name     string
	Layer    string
	Provides []Capability
	Requires []Capability
	Props    NFR
	// Origin records the real-world system the catalog entry models (for
	// the Figure-1 catalog these are the systems the paper names).
	Origin string
}

// ReferenceArchitecture is an ordered stack of named layers (top first), the
// community instrument the paper advocates in C9 and §6.1 for navigating
// ecosystems.
type ReferenceArchitecture struct {
	Name   string
	Layers []string // index 0 is the top (user-facing) layer
	// Optional means assemblies need not fill these layers.
	Optional map[string]bool
}

// Assembly is a concrete ecosystem: one component per (non-optional) layer
// of a reference architecture.
type Assembly struct {
	Arch       *ReferenceArchitecture
	Components []*Component // parallel to Arch.Layers; nil for skipped optional layers
}

// Errors reported by assembly validation.
var (
	ErrLayerUnfilled   = errors.New("ecosystem: required layer unfilled")
	ErrLayerMismatch   = errors.New("ecosystem: component in wrong layer")
	ErrUnmetDependency = errors.New("ecosystem: unmet capability dependency")
)

// Validate checks the assembly invariants: every required layer is filled
// with a component declaring that layer, and every component's required
// capabilities are provided by components in strictly lower layers.
func (a *Assembly) Validate() error {
	if a.Arch == nil || len(a.Components) != len(a.Arch.Layers) {
		return fmt.Errorf("ecosystem: assembly shape does not match architecture")
	}
	for i, comp := range a.Components {
		layer := a.Arch.Layers[i]
		if comp == nil {
			if a.Arch.Optional[layer] {
				continue
			}
			return fmt.Errorf("%w: %s", ErrLayerUnfilled, layer)
		}
		if comp.Layer != layer {
			return fmt.Errorf("%w: %s placed in %s", ErrLayerMismatch, comp.Name, layer)
		}
		// Capabilities must come from below.
		var below []Capability
		for j := i + 1; j < len(a.Components); j++ {
			if a.Components[j] != nil {
				below = append(below, a.Components[j].Provides...)
			}
		}
		for _, req := range comp.Requires {
			found := false
			for _, have := range below {
				if have == req {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("%w: %s requires %q", ErrUnmetDependency, comp.Name, req)
			}
		}
	}
	return nil
}

// ComposedNFR returns the assembly-wide NFR sheet, composing each metric by
// its rule over the components that declare it. This realizes P3's
// "composable and portable" non-functional properties.
func (a *Assembly) ComposedNFR() NFR {
	out := make(NFR)
	counted := make(map[Metric]bool)
	for _, comp := range a.Components {
		if comp == nil {
			continue
		}
		for m, v := range comp.Props {
			if !counted[m] {
				out[m] = v
				counted[m] = true
				continue
			}
			switch RuleFor(m) {
			case ComposeSum:
				out[m] += v
			case ComposeProduct:
				out[m] *= v
			case ComposeMin:
				if v < out[m] {
					out[m] = v
				}
			}
		}
	}
	return out
}

// Names returns the component names in layer order ("-" for skipped layers).
func (a *Assembly) Names() []string {
	out := make([]string, len(a.Components))
	for i, c := range a.Components {
		if c == nil {
			out[i] = "-"
		} else {
			out[i] = c.Name
		}
	}
	return out
}

// Catalog is a set of available components, indexed by layer.
type Catalog struct {
	byLayer map[string][]*Component
	all     []*Component
}

// NewCatalog builds a catalog from components.
func NewCatalog(components []*Component) *Catalog {
	c := &Catalog{byLayer: make(map[string][]*Component)}
	for _, comp := range components {
		c.byLayer[comp.Layer] = append(c.byLayer[comp.Layer], comp)
		c.all = append(c.all, comp)
	}
	for _, comps := range c.byLayer {
		sort.Slice(comps, func(i, j int) bool { return comps[i].Name < comps[j].Name })
	}
	return c
}

// Layer returns the components available for a layer.
func (c *Catalog) Layer(layer string) []*Component {
	return append([]*Component(nil), c.byLayer[layer]...)
}

// Len returns the catalog size.
func (c *Catalog) Len() int { return len(c.all) }

// Find returns the component with the given name, or nil.
func (c *Catalog) Find(name string) *Component {
	for _, comp := range c.all {
		if comp.Name == name {
			return comp
		}
	}
	return nil
}

// Constraint is a hard NFR requirement on the composed assembly.
type Constraint struct {
	Metric Metric
	// Min and Max bound the composed value; use NaN to leave a side open.
	Min, Max float64
}

// Satisfied reports whether value meets the constraint.
func (c Constraint) Satisfied(value float64) bool {
	if !math.IsNaN(c.Min) && value < c.Min {
		return false
	}
	if !math.IsNaN(c.Max) && value > c.Max {
		return false
	}
	return true
}

// AtLeast returns a lower-bound constraint.
func AtLeast(m Metric, v float64) Constraint {
	return Constraint{Metric: m, Min: v, Max: math.NaN()}
}

// AtMost returns an upper-bound constraint.
func AtMost(m Metric, v float64) Constraint {
	return Constraint{Metric: m, Min: math.NaN(), Max: v}
}
