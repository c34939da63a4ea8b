package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
)

// TestDPA1DConcurrentSharedAnalysis: several goroutines solving through one
// shared analysis cache, each on its own run cursor over the shared downset
// space, must all produce the solo-run result; run with -race to check the
// locking.
func TestDPA1DConcurrentSharedAnalysis(t *testing.T) {
	g := testRandomSPG(t, 3, 24, 10)
	inst := NewInstance(g, platform.XScale(4, 4), 0.5)
	solo, soloErr := NewDPA1D().Solve(inst)
	if soloErr != nil {
		t.Fatal(soloErr)
	}
	const workers = 8
	energies := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sol, err := NewDPA1D().Solve(inst)
			if err != nil {
				errs[w] = err
				return
			}
			energies[w] = sol.Energy()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if math.Float64bits(energies[w]) != math.Float64bits(solo.Energy()) {
			t.Fatalf("worker %d energy %.17g != solo %.17g", w, energies[w], solo.Energy())
		}
	}
}

// TestSharedAnalysis2DEquivalence: re-solving the same instance through one
// analysis — whose band contexts and convexity verdicts the first solve
// warms — must return bit-identical energies to a fresh, cache-cold solve,
// for every 2D-family heuristic across a period sweep.
func TestSharedAnalysis2DEquivalence(t *testing.T) {
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
				// Two solves through the shared analysis (the second finds
				// every band warm) vs a cache-cold instance.
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
