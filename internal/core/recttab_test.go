package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
)

// TestMinFeasiblePeriodBoundary: the threshold table must reproduce the
// MinFeasibleSpeed verdict exactly, including one ulp to either side of the
// located boundary.
func TestMinFeasiblePeriodBoundary(t *testing.T) {
	pl := platform.XScale(4, 4)
	rng := rand.New(rand.NewSource(11))
	check := func(work, T float64) {
		t.Helper()
		want := -1
		if _, idx, ok := pl.MinFeasibleSpeed(work, T); ok {
			want = idx
		}
		got := -1
		for i, s := range pl.Speeds {
			if T >= minFeasiblePeriod(work, s) {
				got = i
				break
			}
		}
		if got != want {
			t.Fatalf("work=%.17g T=%.17g: threshold idx %d, MinFeasibleSpeed idx %d", work, T, got, want)
		}
	}
	for trial := 0; trial < 20000; trial++ {
		work := math.Ldexp(rng.Float64(), rng.Intn(20)-10)
		T := math.Ldexp(rng.Float64(), rng.Intn(20)-10)
		if T <= 0 {
			continue
		}
		check(work, T)
		// Probe the exact boundary of every ladder speed, one ulp around it.
		for _, s := range pl.Speeds {
			tb := minFeasiblePeriod(work, s)
			if tb <= 0 {
				continue
			}
			check(work, tb)
			check(work, math.Nextafter(tb, 0))
			check(work, math.Nextafter(tb, math.Inf(1)))
		}
	}
	check(0, 1)
}

// TestSharedRectTablesEquivalence: re-solving the same instance through one
// analysis — warming the family's threshold and energy tables — must return
// bit-identical energies to a fresh, cache-cold solve, for every 2D-family
// heuristic across a period sweep.
func TestSharedRectTablesEquivalence(t *testing.T) {
	pl := platform.XScale(4, 4)
	for _, elev := range []int{2, 5, 8} {
		g, err := randspg.Generate(randspg.Params{N: 40, Elevation: elev, Seed: int64(elev), CCR: 1})
		if err != nil {
			t.Fatal(err)
		}
		warm := NewInstance(g, pl, 1)
		for _, T := range []float64{1, 0.1, 0.01} {
			for _, mk := range []func() Heuristic{
				func() Heuristic { return NewDPA2D() },
				func() Heuristic { return NewDPA2D1D() },
			} {
				h := mk()
				// Two warm solves (the second hits every shared table) vs a
				// cache-cold instance.
				sol1, err1 := h.Solve(warm.WithPeriod(T))
				sol2, err2 := h.Solve(warm.WithPeriod(T))
				solC, errC := mk().Solve(Instance{Graph: g, Platform: pl, Period: T})
				if (err1 == nil) != (errC == nil) || (err2 == nil) != (errC == nil) {
					t.Fatalf("elev=%d %s T=%g: warm errs %v/%v, cold err %v", elev, h.Name(), T, err1, err2, errC)
				}
				if err1 != nil {
					continue
				}
				if math.Float64bits(sol1.Energy()) != math.Float64bits(solC.Energy()) ||
					math.Float64bits(sol2.Energy()) != math.Float64bits(solC.Energy()) {
					t.Fatalf("elev=%d %s T=%g: warm energies %.17g/%.17g != cold %.17g",
						elev, h.Name(), T, sol1.Energy(), sol2.Energy(), solC.Energy())
				}
			}
		}
	}
}

// TestStrictAnalysisMode: an instance whose cache wraps a different graph
// fails validation and every heuristic's Solve with ErrAnalysisMismatch;
// a matching cache and a nil cache are fine.
func TestStrictAnalysisMode(t *testing.T) {
	g1, err := randspg.Generate(randspg.Params{N: 12, Elevation: 2, Seed: 1, CCR: 1})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := randspg.Generate(randspg.Params{N: 12, Elevation: 2, Seed: 2, CCR: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl := platform.XScale(2, 2)
	mismatched := Instance{Graph: g1, Platform: pl, Period: 1, Analysis: spg.NewAnalysis(g2)}

	if err := mismatched.Validate(); !errors.Is(err, ErrAnalysisMismatch) {
		t.Fatalf("Validate error = %v, want ErrAnalysisMismatch", err)
	}
	if err := mismatched.Analyzed().Validate(); !errors.Is(err, ErrAnalysisMismatch) {
		t.Fatalf("Analyzed().Validate error = %v, want ErrAnalysisMismatch", err)
	}
	for _, h := range All(1) {
		if _, err := h.Solve(mismatched); !errors.Is(err, ErrAnalysisMismatch) {
			t.Fatalf("%s Solve error = %v, want ErrAnalysisMismatch", h.Name(), err)
		}
	}
	if _, err := NewGreedy().Solve(NewInstance(g1, pl, 1)); err != nil {
		t.Fatalf("matching cache rejected: %v", err)
	}
	if _, err := NewGreedy().Solve(Instance{Graph: g1, Platform: pl, Period: 1}); err != nil {
		t.Fatalf("nil cache rejected: %v", err)
	}
}
