package experiments

import (
	"reflect"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// TestSelectPeriodInfeasibleAtOneSecond: when every heuristic already fails
// at T = 1 s, the protocol reports ok=false with the T=1 outcomes.
func TestSelectPeriodInfeasibleAtOneSecond(t *testing.T) {
	// A stage of 2 Gcycles cannot meet a 1 s period even at the 1 GHz top
	// speed, and single stages are never split, so every heuristic fails.
	g, err := spg.Chain([]float64{2, 2}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	ir, ok := SelectPeriod(spg.NewAnalysis(g), platform.XScale(4, 4), 1)
	if ok {
		t.Fatal("SelectPeriod reported success on an infeasible instance")
	}
	if ir.Period != 1 {
		t.Errorf("period = %g, want the initial 1 s", ir.Period)
	}
	if len(ir.Outcomes) != len(HeuristicNames) {
		t.Fatalf("%d outcomes, want %d", len(ir.Outcomes), len(HeuristicNames))
	}
	for _, o := range ir.Outcomes {
		if o.OK {
			t.Errorf("%s unexpectedly succeeded", o.Heuristic)
		}
	}
}

// TestSelectPeriodMaxDivisions: an instance feasible at every division must
// stop exactly at the maxDivisions boundary (9 divisions, T = 1e-9 s) rather
// than loop forever or overshoot.
func TestSelectPeriodMaxDivisions(t *testing.T) {
	// Negligible weights and no communication: feasible at any period the
	// protocol will ever try.
	g, err := spg.Chain([]float64{1e-12, 1e-12, 1e-12}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	ir, ok := SelectPeriod(spg.NewAnalysis(g), platform.XScale(4, 4), 1)
	if !ok {
		t.Fatal("SelectPeriod failed on a trivially feasible instance")
	}
	want := 1.0
	for i := 0; i < 9; i++ {
		want /= 10
	}
	if ir.Period != want {
		t.Errorf("period = %g, want %g after exactly 9 divisions", ir.Period, want)
	}
	if !core.AnyOK(ir.Outcomes) {
		t.Error("selected period has no successful heuristic")
	}
}

// TestRunRandomDeterministic: the per-task seed formula makes a campaign a
// pure function of its config — two runs must agree exactly, including
// energies (the evaluator accumulates in a deterministic order).
func TestRunRandomDeterministic(t *testing.T) {
	cfg := RandomConfig{
		N: 20, P: 4, Q: 4, CCR: 1,
		MinElevation: 1, MaxElevation: 3, GraphsPerElev: 2, Seed: 9,
	}
	first, err := RunRandom(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunRandom(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("two RunRandom campaigns with the same config diverged")
	}
}
