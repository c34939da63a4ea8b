package core

import (
	"math"
	"testing"

	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// TestDPA2DPredictionMatchesEvaluator: plan energy from the DP must equal the
// independent evaluator's energy on the reconstructed mapping.
func TestDPA2DPredictionMatchesEvaluator(t *testing.T) {
	pl := platform.XScale(4, 4)
	okCount, rejected := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		g := testRandomSPG(t, seed, 40, 1)
		an := spg.NewAnalysis(g)
		for _, T := range []float64{1, 0.3, 0.1} {
			plan, err := solve2D(an, pl, T, nil)
			if err != nil {
				continue
			}
			m := plan.buildMapping(g, pl, T)
			if m == nil {
				t.Errorf("seed %d T=%g: plan exists but speeds infeasible", seed, T)
				continue
			}
			res, err := mapping.Evaluate(g, pl, m, T)
			if err != nil {
				rejected++
				t.Errorf("seed %d T=%g: plan rejected by evaluator: %v", seed, T, err)
				continue
			}
			okCount++
			if math.Abs(res.Energy-plan.energy) > 1e-9*math.Max(1, plan.energy) {
				t.Errorf("seed %d T=%g: DP energy %.9g vs evaluator %.9g", seed, T, plan.energy, res.Energy)
			}
		}
	}
	t.Logf("checked %d plans, %d rejected", okCount, rejected)
	if okCount == 0 {
		t.Error("no plans produced")
	}
}
