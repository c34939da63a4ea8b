// Package core implements the paper's primary contribution: the five
// polynomial-time heuristics for the MinEnergy(T) problem — Random, Greedy,
// DPA2D, DPA1D and DPA2D1D (Section 5) — built on the SPG, platform and
// mapping substrates. MinEnergy(T) asks for a DAG-partition mapping of a
// series-parallel workflow onto a CMP whose maximum resource cycle-time does
// not exceed the period bound T and whose energy is minimum (Definition 1).
package core

import (
	"errors"
	"fmt"

	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// ErrAnalysisMismatch is the validation failure of an instance that carries
// an analysis cache built for a different graph. Such a mismatch almost
// always means a caller rebuilt a graph but kept an old cache, so it fails
// loudly instead of being repaired with a private cache.
var ErrAnalysisMismatch = errors.New("core: Instance.Analysis wraps a different graph than Instance.Graph")

// ErrNoSolution is returned when a heuristic cannot produce any valid mapping
// for the instance: the paper records these events as failures (Tables 2
// and 3).
var ErrNoSolution = errors.New("core: heuristic found no valid mapping")

// Instance is one MinEnergy(T) problem instance.
type Instance struct {
	Graph    *spg.Graph
	Platform *platform.Platform
	Period   float64 // the bound T, in seconds

	// Analysis optionally carries the shared per-graph analysis cache
	// (validation, reachability, levels, label grids, bands, downset
	// spaces). When nil, each Solve call builds a private one; attaching a
	// cache with NewInstance (or Analyzed) lets every heuristic — and every
	// period division of the selection protocol — reuse the same
	// precomputed structures. The cache must wrap the same Graph; a
	// mismatched cache fails validation with ErrAnalysisMismatch.
	Analysis *spg.Analysis

	// Scratch optionally supplies the arena the DP kernels carve their
	// tables from (see Scratch for the ownership and reset rules). nil makes
	// the kernels allocate normally, so results are identical either way.
	// Scratch is an execution resource, not part of the instance's identity,
	// and is never wire-coded.
	Scratch *Scratch
}

// NewInstance returns an instance with a fresh analysis cache attached, the
// configuration callers should use when the same workload is solved more
// than once (several heuristics, several periods).
func NewInstance(g *spg.Graph, pl *platform.Platform, T float64) Instance {
	return Instance{Graph: g, Platform: pl, Period: T, Analysis: spg.NewAnalysis(g)}
}

// WithPeriod returns a copy of the instance with the period replaced and the
// analysis cache retained — the period protocol's way to re-solve a workload
// at a new bound without re-analyzing the graph.
func (inst Instance) WithPeriod(T float64) Instance {
	inst.Period = T
	return inst
}

// Analyzed returns a copy of the instance that carries an analysis cache,
// attaching a fresh one for its graph when the caller attached none.
// Heuristics call it once at the top of Solve so that all internal stages
// share one cache. A mismatched cache is left in place, so the Validate
// that every Solve performs next fails with ErrAnalysisMismatch.
func (inst Instance) Analyzed() Instance {
	if inst.Graph != nil && inst.Analysis == nil {
		inst.Analysis = spg.NewAnalysis(inst.Graph)
	}
	return inst
}

// Validate sanity-checks the instance. With an analysis cache attached the
// graph validation is memoized, making repeated calls (one per heuristic per
// period division) effectively free. A cache wrapping a different graph
// fails validation with ErrAnalysisMismatch.
func (inst Instance) Validate() error {
	if inst.Graph == nil || inst.Platform == nil {
		return errors.New("core: instance missing graph or platform")
	}
	var err error
	switch {
	case inst.Analysis == nil:
		err = inst.Graph.Validate()
	case inst.Analysis.Graph() != inst.Graph:
		return ErrAnalysisMismatch
	default:
		err = inst.Analysis.Validate()
	}
	if err != nil {
		return err
	}
	if err := inst.Platform.Validate(); err != nil {
		return err
	}
	if inst.Period <= 0 {
		return fmt.Errorf("core: period %g is not positive", inst.Period)
	}
	return nil
}

// Solution is a valid mapping together with its evaluation.
type Solution struct {
	Heuristic string
	Mapping   *mapping.Mapping
	Result    *mapping.Result
}

// Energy returns the total energy of the solution.
func (s *Solution) Energy() float64 { return s.Result.Energy }

// Heuristic is the interface implemented by the five algorithms of Section 5
// and by the exact solver.
type Heuristic interface {
	// Name returns the paper's name for the algorithm.
	Name() string
	// Solve returns a valid solution or ErrNoSolution (possibly wrapped with
	// a cause, e.g. a state-budget overflow for DPA1D).
	Solve(inst Instance) (*Solution, error)
}

// finish evaluates a candidate mapping with the authoritative evaluator and
// wraps it into a Solution. Heuristics call it as their final step so that
// no invalid mapping ever escapes and all reported energies come from the
// same model.
func finish(name string, inst Instance, m *mapping.Mapping) (*Solution, error) {
	res, err := mapping.Evaluate(inst.Graph, inst.Platform, m, inst.Period)
	if err != nil {
		return nil, fmt.Errorf("%w: %s produced an invalid mapping: %v", ErrNoSolution, name, err)
	}
	return &Solution{Heuristic: name, Mapping: m, Result: res}, nil
}

// Options configures the heuristic set returned by AllWith. The zero value
// of every field means "library default", so callers override only what they
// need. Options is part of the campaign cell's wire form (engine.CellSpec),
// so every field is plain JSON-codable data.
type Options struct {
	// Seed drives the Random heuristic.
	Seed int64 `json:"seed,omitempty"`
	// DPA1DMaxStates overrides the DPA1D downset state budget.
	DPA1DMaxStates int `json:"dpa1d_max_states,omitempty"`
	// KeepMappings attaches each successful heuristic's placement to its
	// outcome (CellOutcome.Mapping) instead of dropping it after evaluation.
	// It never changes what is solved or reported — only whether the winning
	// mappings survive — so results with and without it differ solely by the
	// mapping fields. Off by default: campaign tables only need energies,
	// and retaining thousands of placements would be waste; the service's
	// /v1/map turns it on to answer with actionable placements.
	KeepMappings bool `json:"keep_mappings,omitempty"`
}

// All returns the five heuristics of the paper in presentation order, with
// their default configurations. seed drives the Random heuristic.
func All(seed int64) []Heuristic {
	return AllWith(Options{Seed: seed})
}

// AllWith returns the five heuristics of the paper in presentation order,
// configured by o. It is the single authoritative heuristic list: callers
// that need non-default budgets (the experiment campaigns reduce DPA1D's)
// delegate here instead of duplicating the list.
func AllWith(o Options) []Heuristic {
	dpa1d := NewDPA1D()
	if o.DPA1DMaxStates > 0 {
		dpa1d.MaxStates = o.DPA1DMaxStates
	}
	return []Heuristic{
		NewRandom(o.Seed),
		NewGreedy(),
		NewDPA2D(),
		dpa1d,
		NewDPA2D1D(),
	}
}
