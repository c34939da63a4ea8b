package core

import (
	"math"
	"sync"
	"testing"

	"spgcmp/internal/platform"
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
