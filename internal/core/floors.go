package core

import (
	"sync"

	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// This file provides EnergyFloors, the admissible lower-bound oracle behind
// the branch-and-bound exact solver. It reuses the cross-period threshold
// machinery of recttab.go — the same ulp-exact speedFeasible predicate and
// minFeasiblePeriod boundary location — so every verdict agrees bit for bit
// with platform.MinFeasibleSpeed, and hangs off the scale family's shared
// spg.Analysis through the Aux hook exactly like the rectangle tables do
// (stage weights are untouched by CCR rescaling, so the per-stage threshold
// rows are shared across every CCR variant of the family).
//
// The core inequality: a cluster of total work w, run at its slowest
// feasible speed index i, dissipates dynamic energy w * DynPower[i]/Speeds[i].
// The power-per-speed ratio is NOT monotone along real ladders (XScale dips
// at 0.4 GHz), so the admissible per-work floor at index i is the suffix
// minimum of the ratio over indices >= i: a cluster can only grow, growth can
// only push the minimal feasible index up, and the final ratio is then at
// least the suffix minimum at any member's solo index. Leakage and link
// energy floors are handled by the solver on top of these per-work terms.

// floorsCacheKey is the Aux key under which the floor tables hang off the
// family's shared analysis.
type floorsCacheKey struct{}

type floorsCache struct {
	mu   sync.Mutex
	sigs map[string]*EnergyFloors
}

// MemoryFootprint implements spg.Footprinter so the floor tables participate
// in Analysis.MemoryFootprint, with the same flat constants the other Aux
// structures use.
func (fc *floorsCache) MemoryFootprint() int64 {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	var b int64
	//spglint:ignore detrange collects map values for a commutative sum; iteration order never reaches the result
	for sig, f := range fc.sigs {
		b += int64(len(sig)) + auxMapEntryBytes
		b += int64(len(f.suffixRatio)) * 8
		b += auxSliceHeaderBytes * int64(len(f.stageThr))
		for _, row := range f.stageThr {
			b += int64(len(row)) * 8
		}
	}
	return b
}

// EnergyFloors answers admissible energy lower-bound queries for one
// (scale family, energy signature) pair: per-stage solo-cluster dynamic
// floors via cross-period threshold rows, and per-work dynamic floors for
// growing clusters via suffix-minimum power ratios. All feasibility verdicts
// reproduce platform.MinFeasibleSpeed bit for bit.
type EnergyFloors struct {
	speeds []float64
	// suffixRatio[i] = min over j >= i of DynPower[j]/Speeds[j], the
	// admissible J-per-Gcycle floor for any cluster whose slowest feasible
	// index is at least i.
	suffixRatio []float64
	// stageThr[s][i] is the minimal period at which ladder speed i becomes
	// feasible for stage s's weight — the recttab cross-period threshold,
	// computed once per family and shared across periods and CCR variants.
	stageThr [][]float64
	// stageW[s] is stage s's weight, kept alongside the thresholds so the
	// floor can be priced without a graph in hand.
	stageW []float64
}

// FloorsFor returns the floor tables for an's scale family and pl's energy
// signature, creating them on first use.
func FloorsFor(an *spg.Analysis, pl *platform.Platform) *EnergyFloors {
	fc := an.Aux(floorsCacheKey{}, func() any {
		return &floorsCache{sigs: make(map[string]*EnergyFloors)}
	}).(*floorsCache)
	sig := energySig(pl)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	f := fc.sigs[sig]
	if f == nil {
		f = newEnergyFloors(an.Graph(), pl)
		fc.sigs[sig] = f
	}
	return f
}

func newEnergyFloors(g *spg.Graph, pl *platform.Platform) *EnergyFloors {
	f := &EnergyFloors{
		speeds:      pl.Speeds,
		suffixRatio: make([]float64, len(pl.Speeds)),
		stageThr:    make([][]float64, g.N()),
		stageW:      make([]float64, g.N()),
	}
	for i := len(pl.Speeds) - 1; i >= 0; i-- {
		r := pl.DynPower[i] / pl.Speeds[i]
		if i+1 < len(pl.Speeds) && f.suffixRatio[i+1] < r {
			r = f.suffixRatio[i+1]
		}
		f.suffixRatio[i] = r
	}
	for s := range f.stageThr {
		f.stageW[s] = g.Stages[s].Weight
		row := make([]float64, len(pl.Speeds))
		for i, sp := range pl.Speeds {
			row[i] = minFeasiblePeriod(f.stageW[s], sp)
		}
		f.stageThr[s] = row
	}
	return f
}

// MinIdx returns the index of the slowest speed able to process work within
// period T — platform.MinFeasibleSpeed's verdict, ulp for ulp — or -1 when
// even the fastest speed is too slow.
func (f *EnergyFloors) MinIdx(work, T float64) int {
	if work < 0 || T <= 0 {
		return -1
	}
	for i, s := range f.speeds {
		if speedFeasible(work, s, T) {
			return i
		}
	}
	return -1
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

// StageMinIdx answers MinIdx for stage s's weight from the cross-period
// threshold row: the feasibility predicate is monotone in T, so the first
// index whose threshold period is at or below T is exactly the predicate
// scan's answer.
func (f *EnergyFloors) StageMinIdx(s int, T float64) int {
	if T <= 0 {
		return -1
	}
	for i, tmin := range f.stageThr[s] {
		if T >= tmin {
			return i
		}
	}
	return -1
}

// StageDynFloor returns the solo-cluster dynamic floor of stage s at period
// T: an admissible lower bound on the dynamic energy any final cluster
// containing s will be charged on s's behalf, answered from the cross-period
// threshold row. ok is false when the stage alone cannot meet the period.
func (f *EnergyFloors) StageDynFloor(s int, T float64) (floor float64, ok bool) {
	idx := f.StageMinIdx(s, T)
	if idx < 0 {
		return 0, false
	}
	return float64(f.stageW[s] * f.suffixRatio[idx]), true
}
