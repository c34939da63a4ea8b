package core

import (
	"testing"

	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// checkBudgetMonotone solves g fresh at T and, when that run exhausts the
// budget, fresh again at every looser period of looser(T): each must exhaust
// the budget too (verdict's period lift relies on it). Every solve gets its
// own analysis, so no memo, lattice or verdict is shared. It reports
// whether T exhausted the budget.
func checkBudgetMonotone(t *testing.T, name string, h *DPA1D, g *spg.Graph, pl *platform.Platform, T float64) bool {
	t.Helper()
	if !freshGraphOutcome(h, g, pl, T).budget {
		return false
	}
	for _, loose := range []float64{T * sumMargin(g.N()), 2 * T, 10 * T} {
		if got := freshGraphOutcome(h, g, pl, loose); !got.budget {
			t.Errorf("%s: budget exhausted at T %g but not at %g: %v", name, T, loose, got)
		}
	}
	return true
}

// TestDPA1DBudgetFailuresMonotoneInPeriod: a DPA1D run that exhausts its
// budget at T exhausts it at T·sumMargin(n), 2T and 10T on the same chain —
// a looser run never succeeds, nor fails otherwise, where a tighter one ran
// out of budget. Seeded random SPGs at exploding elevations run under small
// budgets on three chain lengths; the Table 1 applications whose DPA1D
// explodes under the campaign budget run on 4x4.
func TestDPA1DBudgetFailuresMonotoneInPeriod(t *testing.T) {
	budgets := []DPA1D{
		{MaxStates: 300, MaxTransitions: 1 << 30},
		{MaxStates: 1 << 20, MaxTransitions: 3_000},
	}
	failures := 0
	for seed := int64(1); seed <= 6; seed++ {
		for _, elev := range []int{5, 8} {
			g, err := randspg.Generate(randspg.Params{N: 40, Elevation: elev, Seed: seed, CCR: 1})
			if err != nil {
				t.Fatal(err)
			}
			for bi := range budgets {
				for _, n := range []int{2, 4, 6} {
					for _, T := range []float64{0.03, 0.1, 0.3} {
						if checkBudgetMonotone(t, "random", &budgets[bi], g, platform.XScale(n, n), T) {
							failures++
						}
					}
				}
			}
		}
	}
	t.Logf("random SPGs: %d budget failures checked", failures)
	if failures < 20 {
		t.Fatalf("only %d random budget failures: the suite lost its explosions", failures)
	}
	if testing.Short() {
		return
	}
	h := &DPA1D{MaxStates: 60_000, MaxTransitions: NewDPA1D().MaxTransitions}
	for _, name := range []string{"Beamformer", "ChannelVocoder", "Filterbank", "FMRadio", "Vocoder"} {
		a, err := streamit.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := a.GraphWithCCR(a.CCR)
		if err != nil {
			t.Fatal(err)
		}
		if !checkBudgetMonotone(t, name, h, g, platform.XScale(4, 4), 0.1) {
			t.Errorf("%s: premise: DPA1D at T 0.1 on 4x4 did not exhaust the campaign budget", name)
		}
	}
}
