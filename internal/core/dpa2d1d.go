package core

import (
	"fmt"

	"spgcmp/internal/platform"
)

// DPA2D1D runs the DPA2D dynamic program on a virtual 1 x (p*q) CMP and maps
// the resulting chain of column-bands along the snake embedding of the real
// grid (Section 5.4). It trades the optimality of DPA1D (which considers
// every admissible split, at exponential cost in the elevation) for the
// polynomial cost of x-level cuts, and is designed for graphs with low
// communication weights or low elevation.
type DPA2D1D struct{}

// NewDPA2D1D returns the heuristic.
func NewDPA2D1D() *DPA2D1D { return &DPA2D1D{} }

// Name implements Heuristic.
func (h *DPA2D1D) Name() string { return "DPA2D1D" }

// Solve implements Heuristic.
func (h *DPA2D1D) Solve(inst Instance) (*Solution, error) {
	inst = inst.Analyzed()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	pl := inst.Platform
	uniline := &platform.Platform{
		P:             1,
		Q:             pl.NumCores(),
		Speeds:        pl.Speeds,
		DynPower:      pl.DynPower,
		LeakPower:     pl.LeakPower,
		CommLeakPower: pl.CommLeakPower,
		BW:            pl.BW,
		EnergyPerGB:   pl.EnergyPerGB,
	}
	// The virtual uni-line shares the instance's analysis: band contexts are
	// platform-independent, so DPA2D1D reuses whatever DPA2D already built.
	plan, err := solve2D(inst.Analysis, uniline, inst.Period, inst.Scratch)
	if err != nil {
		return nil, fmt.Errorf("%w: DPA2D1D found no 1D plan", ErrNoSolution)
	}
	// Band k of the plan occupies snake position k; every stage of the band
	// lands there (the virtual column has a single core).
	chunks := make([][]int, len(plan.bandEnd))
	prevEnd := 0
	for k, end := range plan.bandEnd {
		for i, s := range inst.Graph.Stages {
			if s.Label.X > prevEnd && s.Label.X <= end {
				chunks[k] = append(chunks[k], i)
			}
		}
		prevEnd = end
	}
	return finishSnake(h.Name(), inst, chunks)
}
