package core

import (
	"math"
	"testing"

	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// TestCostOrder pins the cheapest-first order as a permutation of AllWith.
func TestCostOrder(t *testing.T) {
	hs := AllWith(Options{})
	want := []string{"Random", "Greedy", "DPA2D1D", "DPA2D", "DPA1D"}
	if len(costOrder) != len(hs) {
		t.Fatalf("costOrder has %d entries for %d heuristics", len(costOrder), len(hs))
	}
	for k, i := range costOrder {
		if got := hs[i].Name(); got != want[k] {
			t.Errorf("costOrder[%d] names %s, want %s", k, got, want[k])
		}
	}
}

// TestCellSolverStopsAtFirstSuccess: on an easy instance FirstOK runs only
// Random, and Complete then fills every outcome exactly as solving each
// heuristic directly does, in the paper's order.
func TestCellSolverStopsAtFirstSuccess(t *testing.T) {
	g, err := spg.Chain([]float64{0.01, 0.02, 0.01}, []float64{0.001, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Seed: 3, KeepMappings: true}
	inst := NewInstance(g, platform.XScale(2, 2), 1)
	c := NewCellSolver(inst, o)
	if !c.FirstOK() || c.solved != 1 {
		t.Fatalf("FirstOK solved %d heuristics, want only Random to succeed", c.solved)
	}
	if !c.FirstOK() || c.solved != 1 {
		t.Fatalf("a repeated FirstOK solved more heuristics (%d)", c.solved)
	}
	out := c.Complete()
	for i, h := range AllWith(o) {
		sol, err := h.Solve(inst)
		if err != nil {
			t.Fatalf("%s failed: %v", h.Name(), err)
		}
		got := out[i]
		if got.Heuristic != h.Name() || !got.OK || math.Float64bits(got.Energy) != math.Float64bits(sol.Energy()) ||
			got.ActiveCores != sol.Result.ActiveCores || got.Mapping == nil {
			t.Errorf("outcome %d = %+v, want %s with energy %g on %d cores", i, got, h.Name(), sol.Energy(), sol.Result.ActiveCores)
		}
	}
}

// TestCellSolverAllFail: when no heuristic succeeds FirstOK has run all of
// them, so the outcomes are already complete.
func TestCellSolverAllFail(t *testing.T) {
	g, err := spg.Chain([]float64{2, 2}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCellSolver(NewInstance(g, platform.XScale(2, 2), 1), Options{Seed: 1})
	if c.FirstOK() {
		t.Fatal("FirstOK succeeded on an instance infeasible at 1 s")
	}
	if c.solved != len(costOrder) {
		t.Fatalf("FirstOK solved %d of %d heuristics before reporting failure", c.solved, len(costOrder))
	}
	for _, o := range c.Complete() {
		if o.Heuristic == "" || o.OK {
			t.Errorf("outcome %+v, want a named failure", o)
		}
	}
}
