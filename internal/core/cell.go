package core

import (
	"math"

	"spgcmp/internal/mapping"
)

// CellOutcome records one heuristic's result on one instance — the unit row
// of every campaign table (the Outcome of the Section 6 figures). Failed
// heuristics keep OK false and the zero Energy/ActiveCores; the paper counts
// them in Tables 2 and 3. The struct is its own stable wire form: every
// field JSON-codes losslessly (float64s round-trip bit-exactly through
// encoding/json), so outcomes survive the shard protocol and service
// responses unchanged.
type CellOutcome struct {
	Heuristic   string  `json:"heuristic"`
	OK          bool    `json:"ok"`
	Energy      float64 `json:"energy,omitempty"`
	ActiveCores int     `json:"active_cores,omitempty"`
	// Mapping is the heuristic's placement in its platform-independent wire
	// form, retained only under Options.KeepMappings (campaign tables drop
	// placements; the mapping service keeps them to answer actionably).
	Mapping *mapping.WireMapping `json:"mapping,omitempty"`
}

// costOrder is the order in which a CellSolver runs the heuristics of
// AllWith, as indexes into that list: Random, Greedy, DPA2D1D, DPA2D, DPA1D,
// cheapest first. Every heuristic is a pure function of (instance, options),
// so the order changes only how soon a first success is found, never an
// outcome.
var costOrder = [...]int{0, 1, 4, 2, 3}

// CellSolver solves one instance's heuristics lazily — the cell-level solve
// entry point of the period-selection protocol. FirstOK runs them cheapest
// first and stops at the first success, which is all an intermediate period
// division needs to know; Complete runs whatever is left, for the period the
// protocol returns. A period CapacityInfeasible certifies runs no heuristic
// at all: FirstOK reports false and Complete returns the five failed
// outcomes, exactly what solving them would have returned.
type CellSolver struct {
	inst Instance
	keep bool
	hs   []Heuristic
	out  []CellOutcome
	// solved is how many heuristics of costOrder are settled: run, or all
	// of them failed by the capacity certificate. ok records whether one
	// succeeded.
	solved int
	ok     bool
}

// NewCellSolver prepares the heuristics of AllWith(o) on inst; nothing is
// solved until FirstOK or Complete, and nothing ever is on a period
// CapacityInfeasible certifies.
func NewCellSolver(inst Instance, o Options) *CellSolver {
	hs := AllWith(o)
	c := &CellSolver{inst: inst, keep: o.KeepMappings, hs: hs, out: make([]CellOutcome, len(hs))}
	if CapacityInfeasible(inst) {
		for i, h := range hs {
			c.out[i].Heuristic = h.Name()
		}
		c.solved = len(costOrder)
	}
	return c
}

// capacityMargin scales both tests of CapacityInfeasible so that rounding
// can never certify a period some mapping meets (see there).
const capacityMargin = 1 + 1e-6

// CapacityInfeasible certifies that no mapping of inst meets its period, from
// the platform's capacity alone: it holds when the heaviest stage weight
// exceeds T·s_max·m, or the total stage work exceeds NumCores·T·s_max·m, for
// s_max the top speed and m = capacityMargin. The second test is the
// classical period lower bound of pipeline mapping, Σw ≤ p·T·s_max.
//
// Soundness. Every heuristic's success is a mapping.Evaluate acceptance
// (finish), and Evaluate accepts a core c at speed s_c ≤ s_max only if
// fl(W̃_c/s_c) ≤ fl(T·fl(1+relTol)), relTol = 1e-9, where W̃_c is the
// recursive sum of the weights on c. Write u = 2⁻⁵³ and γ = nu/(1−nu) for
// a graph of n stages. Weights are non-negative (Validate), so W̃_c is
// within a factor 1±γ of the exact work W_c, and acceptance gives
//
//	W_c ≤ W̃_c/(1−γ) ≤ s_max·T·κ,  κ = (1+relTol)(1+u)²/((1−u)(1−γ)).
//
// Every stage sits on some core, so each weight is at most its core's W_c,
// and Σw = Σ_c W_c over at most NumCores cores. The certificate compares
// the exact heaviest weight with fl(fl(T·s_max)·m) ≥ T·s_max·m(1−u)², and
// the recursive total, at most Σw(1+γ), with
// fl(fl(p·fl(T·s_max))·m) ≥ p·T·s_max·m(1−u)³. Firing therefore bounds a
// weight or Σw above what an accepted mapping allows as soon as
//
//	m ≥ (1+relTol)(1+u)²(1+γ)/((1−u)⁴(1−γ)).
//
// For n < 2³⁰ stages γ < 1.2·10⁻⁷, so the right side is below 1+2.5·10⁻⁷,
// under the double nearest 1+10⁻⁶ (barring overflow and underflow, as
// throughout; a NaN never certifies). An invalid instance certifies
// nothing: every heuristic rejects it before Evaluate anyway.
func CapacityInfeasible(inst Instance) bool {
	if inst.Validate() != nil || inst.Graph.N() >= 1<<30 {
		return false
	}
	coreCap := inst.Period * inst.Platform.MaxSpeed()
	var total, heaviest float64
	for _, s := range inst.Graph.Stages {
		total += s.Weight
		heaviest = math.Max(heaviest, s.Weight)
	}
	return heaviest > coreCap*capacityMargin ||
		total > float64(inst.Platform.NumCores())*coreCap*capacityMargin
}

// FirstOK solves heuristics in cost order until one succeeds and reports
// whether any has. When it reports false, every heuristic has run or the
// capacity certificate has failed them all.
func (c *CellSolver) FirstOK() bool {
	for !c.ok && c.solved < len(costOrder) {
		c.solve()
	}
	return c.ok
}

// Complete solves every heuristic not yet run and returns all outcomes in
// the paper's presentation order.
func (c *CellSolver) Complete() []CellOutcome {
	for c.solved < len(costOrder) {
		c.solve()
	}
	return c.out
}

// solve runs the next heuristic in cost order and fills its outcome.
func (c *CellSolver) solve() {
	i := costOrder[c.solved]
	c.solved++
	h, o := c.hs[i], &c.out[i]
	o.Heuristic = h.Name()
	sol, err := h.Solve(c.inst)
	if err != nil {
		return
	}
	c.ok, o.OK = true, true
	o.Energy = sol.Energy()
	o.ActiveCores = sol.Result.ActiveCores
	if c.keep {
		o.Mapping = sol.Mapping.Wire(c.inst.Platform)
	}
}

// AnyOK reports whether at least one outcome succeeded — the per-period
// continuation test of the Section 6.1.3 protocol over eagerly solved
// outcomes (CellSolver.FirstOK answers it without solving them all).
func AnyOK(outcomes []CellOutcome) bool {
	for _, o := range outcomes {
		if o.OK {
			return true
		}
	}
	return false
}
