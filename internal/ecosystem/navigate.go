package ecosystem

import (
	"errors"
	"fmt"
	"sort"
)

// This file solves the Ecosystem Navigation challenge (paper C9): "solving
// problems of comparison, selection, composition, replacement, and
// adaptation of components (and assemblies) on behalf of the user." Given a
// reference architecture, a component catalog, and user requirements
// (capabilities + hard NFR constraints + soft preferences), the navigator
// enumerates valid assemblies and returns the best ones under a utility
// function — the paper's "satisficing" framing (§3.5): hard constraints are
// satisfied, preferences are optimized.

// Requirements describe what the user needs from an assembly.
type Requirements struct {
	// Capabilities the top-level assembly must provide (checked against
	// the union of all component capabilities).
	Capabilities []Capability
	// Constraints are hard bounds on the composed NFR sheet.
	Constraints []Constraint
	// Weights express soft preferences: utility adds Weight × normalized
	// metric value (direction-corrected). Metrics absent from the sheet
	// contribute zero.
	Weights map[Metric]float64
}

// Candidate is one scored assembly.
type Candidate struct {
	Assembly *Assembly
	NFR      NFR
	Utility  float64
}

// ErrNoValidAssembly is returned when no assembly satisfies the hard
// requirements.
var ErrNoValidAssembly = errors.New("ecosystem: no valid assembly satisfies the requirements")

// Navigate enumerates assemblies of catalog components over arch, filters by
// hard requirements, scores survivors, and returns the top k (all when
// k ≤ 0), best first. The search is exhaustive with per-layer pruning, which
// is exact for catalog sizes in the reference-architecture range (a few
// dozen components per layer).
func Navigate(arch *ReferenceArchitecture, catalog *Catalog, req Requirements, k int) ([]Candidate, error) {
	if arch == nil || catalog == nil {
		return nil, fmt.Errorf("ecosystem: nil architecture or catalog")
	}
	options := make([][]*Component, len(arch.Layers))
	for i, layer := range arch.Layers {
		opts := catalog.Layer(layer)
		if arch.Optional[layer] {
			opts = append(opts, nil) // the "skip" choice
		}
		if len(opts) == 0 {
			return nil, fmt.Errorf("%w: layer %q has no candidates", ErrNoValidAssembly, layer)
		}
		options[i] = opts
	}
	var out []Candidate
	current := make([]*Component, len(arch.Layers))
	var recurse func(layer int)
	recurse = func(layer int) {
		if layer == len(arch.Layers) {
			asm := &Assembly{Arch: arch, Components: append([]*Component(nil), current...)}
			if asm.Validate() != nil {
				return
			}
			if !assemblyProvides(asm, req.Capabilities) {
				return
			}
			sheet := asm.ComposedNFR()
			for _, c := range req.Constraints {
				if !c.Satisfied(sheet[c.Metric]) {
					return
				}
			}
			out = append(out, Candidate{Assembly: asm, NFR: sheet, Utility: utility(sheet, req.Weights)})
			return
		}
		for _, opt := range options[layer] {
			current[layer] = opt
			recurse(layer + 1)
		}
		current[layer] = nil
	}
	recurse(0)
	if len(out) == 0 {
		return nil, ErrNoValidAssembly
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Utility > out[j].Utility })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

func assemblyProvides(asm *Assembly, caps []Capability) bool {
	var all []Capability
	for _, c := range asm.Components {
		if c != nil {
			all = append(all, c.Provides...)
		}
	}
	return capsSubset(caps, all)
}

func capsSubset(want, have []Capability) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// utility scores an NFR sheet under preference weights. Metrics where lower
// is better contribute negatively so that "weight 1 on latency" means
// "prefer lower latency".
func utility(sheet NFR, weights map[Metric]float64) float64 {
	u := 0.0
	for m, w := range weights {
		v, ok := sheet[m]
		if !ok {
			continue
		}
		if HigherIsBetter(m) {
			u += w * v
		} else {
			u -= w * v
		}
	}
	return u
}
