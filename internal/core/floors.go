package core

import (
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// This file provides EnergyFloors, the admissible lower-bound oracle behind
// the branch-and-bound exact solver. Every speed verdict it gives is
// platform.MinFeasibleSpeed's, so the floors price clusters with exactly
// the speeds the evaluator charges. The exact solver builds one per solve.
//
// The core inequality: a cluster of total work w, run at its slowest
// feasible speed index i, dissipates dynamic energy w * DynPower[i]/Speeds[i].
// The power-per-speed ratio is NOT monotone along real ladders (XScale dips
// at 0.4 GHz), so the admissible per-work floor at index i is the suffix
// minimum of the ratio over indices >= i: a cluster can only grow, growth can
// only push the minimal feasible index up, and the final ratio is then at
// least the suffix minimum at any member's solo index. Leakage and link
// energy floors are handled by the solver on top of these per-work terms.

// EnergyFloors answers admissible energy lower-bound queries for one graph
// on one platform: per-stage solo-cluster dynamic floors, and per-work
// dynamic floors for growing clusters via suffix-minimum power ratios.
type EnergyFloors struct {
	pl *platform.Platform
	// suffixRatio[i] = min over j >= i of DynPower[j]/Speeds[j], the
	// admissible J-per-Gcycle floor for any cluster whose slowest feasible
	// index is at least i.
	suffixRatio []float64
	// stageW[s] is stage s's weight, so a stage's floor can be priced
	// without a graph in hand.
	stageW []float64
}

// NewEnergyFloors returns the floor tables of g's stages on pl.
func NewEnergyFloors(g *spg.Graph, pl *platform.Platform) *EnergyFloors {
	f := &EnergyFloors{
		pl:          pl,
		suffixRatio: make([]float64, len(pl.Speeds)),
		stageW:      make([]float64, g.N()),
	}
	for i := len(pl.Speeds) - 1; i >= 0; i-- {
		r := pl.DynPower[i] / pl.Speeds[i]
		if i+1 < len(pl.Speeds) && f.suffixRatio[i+1] < r {
			r = f.suffixRatio[i+1]
		}
		f.suffixRatio[i] = r
	}
	for s := range f.stageW {
		f.stageW[s] = g.Stages[s].Weight
	}
	return f
}

// MinIdx returns the index of the slowest speed able to process work within
// period T — platform.MinFeasibleSpeed's verdict — or -1 when even the
// fastest speed is too slow.
func (f *EnergyFloors) MinIdx(work, T float64) int {
	_, idx, _ := f.pl.MinFeasibleSpeed(work, T)
	return idx
}

// DynFloor returns an admissible lower bound on the dynamic energy of any
// cluster whose current work is work: the work priced at the suffix-minimum
// power ratio of its slowest feasible index. The bound never exceeds the
// dynamic energy the evaluator charges the cluster after any sequence of
// further stage additions. ok is false when the work already exceeds the
// fastest speed's capacity.
func (f *EnergyFloors) DynFloor(work, T float64) (floor float64, ok bool) {
	idx := f.MinIdx(work, T)
	if idx < 0 {
		return 0, false
	}
	return work * f.suffixRatio[idx], true
}

// StageDynFloor returns the solo-cluster dynamic floor of stage s at period
// T: an admissible lower bound on the dynamic energy any final cluster
// containing s will be charged on s's behalf. ok is false when the stage
// alone cannot meet the period.
func (f *EnergyFloors) StageDynFloor(s int, T float64) (floor float64, ok bool) {
	idx := f.MinIdx(f.stageW[s], T)
	if idx < 0 {
		return 0, false
	}
	return float64(f.stageW[s] * f.suffixRatio[idx]), true
}
