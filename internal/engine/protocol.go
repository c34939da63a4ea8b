package engine

import (
	"math"

	"spgcmp/internal/core"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// InstanceResult is the evaluation of all heuristics on one workload at the
// period selected by the Section 6.1.3 protocol.
type InstanceResult struct {
	Period   float64            `json:"period"`
	Outcomes []core.CellOutcome `json:"outcomes"`
}

// BestEnergy returns the minimum energy over successful heuristics, or +Inf.
func (ir InstanceResult) BestEnergy() float64 {
	best := math.Inf(1)
	for _, o := range ir.Outcomes {
		if o.OK && o.Energy < best {
			best = o.Energy
		}
	}
	return best
}

// SelectPeriod implements the protocol of Section 6.1.3 over a pre-built
// (possibly shared) analysis: start at T = 1 s, iteratively divide the period
// by 10 while at least one heuristic still succeeds, and retain the last
// period before total failure together with the heuristic outcomes at that
// period. ok is false when every heuristic already fails at 1 s.
//
// Only the returned period needs all five outcomes. Every other period
// asks whether any heuristic succeeds, so the protocol solves it cheapest
// first and stops at the first success (core.CellSolver), and completes the
// returned period once the next division has failed or the cap is reached.
// A division whose work exceeds the platform's capacity fails without
// running a heuristic (core.CapacityInfeasible). Heuristics are pure
// functions of (instance, options), and the certificate holds only where
// every heuristic fails, so the result is the one solving every heuristic at
// every division would give.
//
// opts configures the heuristic set (core.AllWith); opts.Seed drives the
// Random heuristic. The analysis is only read through its concurrency-safe
// accessors, so one analysis may serve several concurrent calls; campaigns
// pass scale-family members and campaign-cache hits here so the protocol
// starts from whatever structures earlier runs on the same workload family
// already built.
func SelectPeriod(an *spg.Analysis, pl *platform.Platform, opts core.Options) (InstanceResult, bool) {
	return selectPeriodDivisionsScratch(an, pl, opts, DefaultMaxDivisions, nil)
}

// DefaultMaxDivisions is the paper's cap on the period-selection protocol:
// at most nine divisions by 10 below the 1 s starting period.
const DefaultMaxDivisions = 9

// selectPeriodDivisionsScratch is the protocol with an explicit cap on the
// number of period divisions (<= 0 selects DefaultMaxDivisions) — the knob
// a CellSpec carries so a cell's whole solve is declarative — and a
// caller-owned solver arena threaded through every period's instance (nil
// allocates normally).
// The arena is reset between periods and before the returned period is
// completed: outcomes carry only scalars and wire-form copies, so nothing
// handed to the caller is arena-backed.
func selectPeriodDivisionsScratch(an *spg.Analysis, pl *platform.Platform, opts core.Options, maxDivisions int, sc *core.Scratch) (InstanceResult, bool) {
	if maxDivisions <= 0 {
		maxDivisions = DefaultMaxDivisions
	}
	inst := core.Instance{Graph: an.Graph(), Platform: pl, Period: 1.0, Analysis: an, Scratch: sc}
	cell := core.NewCellSolver(inst, opts)
	if !cell.FirstOK() {
		// Every heuristic has failed: the outcomes are complete.
		return InstanceResult{Period: inst.Period, Outcomes: cell.Complete()}, false
	}
	for i := 0; i < maxDivisions; i++ {
		sc.Reset()
		tighter := inst.WithPeriod(inst.Period / 10)
		next := core.NewCellSolver(tighter, opts)
		if !next.FirstOK() {
			break
		}
		inst, cell = tighter, next
	}
	sc.Reset()
	return InstanceResult{Period: inst.Period, Outcomes: cell.Complete()}, true
}
