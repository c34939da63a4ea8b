package core

import "spgcmp/internal/mapping"

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

// SolveCell runs every heuristic of AllWith(o) on the instance and returns
// one outcome per heuristic, in the paper's presentation order. It is the
// eager form of CellSolver: an analysis cache attached to inst is reused by
// all heuristics (callers that solve a workload more than once should attach
// one with NewInstance or Instance.Analyzed).
func SolveCell(inst Instance, o Options) []CellOutcome {
	return NewCellSolver(inst, o).Complete()
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
// protocol returns.
type CellSolver struct {
	inst Instance
	keep bool
	hs   []Heuristic
	out  []CellOutcome
	// solved is how many heuristics of costOrder have run; ok records
	// whether one of them succeeded.
	solved int
	ok     bool
}

// NewCellSolver prepares the heuristics of AllWith(o) on inst; nothing is
// solved until FirstOK or Complete.
func NewCellSolver(inst Instance, o Options) *CellSolver {
	hs := AllWith(o)
	return &CellSolver{inst: inst, keep: o.KeepMappings, hs: hs, out: make([]CellOutcome, len(hs))}
}

// FirstOK solves heuristics in cost order until one succeeds and reports
// whether any has. When it reports false, every heuristic has run.
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
