package experiments

import (
	"math"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// checkCacheEquivalence solves the workload with every campaign heuristic at
// a descending period sequence twice — once through a shared analysis cache
// (warming it exactly like SelectPeriod does) and once with a fresh,
// cache-free instance per call — and requires bit-identical outcomes.
func checkCacheEquivalence(t *testing.T, name string, g *spg.Graph, pl *platform.Platform, seed int64) {
	t.Helper()
	checkInstanceEquivalence(t, name, core.NewInstance(g, pl, 1.0), g, seed)
}

// checkInstanceEquivalence is the core of the equivalence suite: shared is
// an instance carrying a (possibly family-shared or campaign-cached)
// analysis, uncachedG an independently built copy of the same workload; the
// two must produce bit-identical outcomes for every heuristic at every
// period.
func checkInstanceEquivalence(t *testing.T, name string, shared core.Instance, uncachedG *spg.Graph, seed int64) {
	t.Helper()
	pl := shared.Platform
	for _, T := range []float64{1.0, 0.1, 0.01} {
		cached := core.AllWith(campaignOptions(seed))
		fresh := core.AllWith(campaignOptions(seed))
		for i, h := range cached {
			solC, errC := h.Solve(shared.WithPeriod(T))
			solU, errU := fresh[i].Solve(core.Instance{Graph: uncachedG, Platform: pl, Period: T})
			if (errC == nil) != (errU == nil) {
				t.Errorf("%s/%s T=%g: cached err %v, uncached err %v", name, h.Name(), T, errC, errU)
				continue
			}
			if errC != nil {
				continue
			}
			if math.Float64bits(solC.Energy()) != math.Float64bits(solU.Energy()) {
				t.Errorf("%s/%s T=%g: cached energy %.17g != uncached %.17g",
					name, h.Name(), T, solC.Energy(), solU.Energy())
			}
			if solC.Result.ActiveCores != solU.Result.ActiveCores {
				t.Errorf("%s/%s T=%g: cached active cores %d != uncached %d",
					name, h.Name(), T, solC.Result.ActiveCores, solU.Result.ActiveCores)
			}
		}
	}
}

// TestCacheEquivalenceStreamIt: on all 12 StreamIt applications, the shared
// analysis cache must not change any heuristic's result — energies are
// bit-identical with and without it. Under -short the suite shrinks to one
// app per regime (chain, mid, fat, budget-failing) so the race-enabled CI
// run stays fast; the full 12-app proof runs in the default mode.
func TestCacheEquivalenceStreamIt(t *testing.T) {
	pl := platform.XScale(4, 4)
	shortSubset := map[string]bool{"DCT": true, "DES": true, "FMRadio": true, "Vocoder": true}
	for _, a := range streamit.Suite() {
		if testing.Short() && !shortSubset[a.Name] {
			continue
		}
		g, err := a.Graph()
		if err != nil {
			t.Fatal(err)
		}
		checkCacheEquivalence(t, a.Name, g, pl, 42)
	}
}

// TestCacheEquivalenceRandom: same property on a random-SPG sample across
// elevations (including the elevation-1 chains where DPA1D reuses the most
// state across periods).
func TestCacheEquivalenceRandom(t *testing.T) {
	pl := platform.XScale(4, 4)
	maxElev := 6
	if testing.Short() {
		maxElev = 3
	}
	for elev := 1; elev <= maxElev; elev++ {
		g, err := randspg.Generate(randspg.Params{N: 30, Elevation: elev, Seed: int64(100 + elev), CCR: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkCacheEquivalence(t, g.String(), g, pl, int64(elev))
	}
}
