package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// testChain builds a chain of k stages with the given per-stage weight and
// per-edge volume.
func testChain(t testing.TB, k int, w, vol float64) *spg.Graph {
	t.Helper()
	ws := make([]float64, k)
	vs := make([]float64, k-1)
	for i := range ws {
		ws[i] = w
	}
	for i := range vs {
		vs[i] = vol
	}
	g, err := spg.Chain(ws, vs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testRandomSPG builds a random SPG via recursive composition with uniform
// weights in [0.01, 0.1] Gcycles and volumes scaled to the given CCR.
func testRandomSPG(t testing.TB, seed int64, n int, ccr float64) *spg.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var build func(n int) *spg.Graph
	build = func(n int) *spg.Graph {
		if n <= 2 {
			return spg.Primitive(1, 1, 1)
		}
		k := 1 + rng.Intn(n-1)
		l, r := build(k), build(n-k)
		if rng.Intn(2) == 0 {
			return spg.Series(l, r)
		}
		return spg.Parallel(l, r)
	}
	g := build(n)
	spg.RandomizeWeights(g, rng, 0.01, 0.1)
	spg.RandomizeVolumes(g, rng, 0.5, 1.5)
	spg.ScaleToCCR(g, ccr)
	return g
}

func solveOrSkipReason(t *testing.T, h Heuristic, inst Instance) *Solution {
	t.Helper()
	sol, err := h.Solve(inst)
	if err != nil {
		if errors.Is(err, ErrNoSolution) {
			return nil
		}
		t.Fatalf("%s: unexpected error: %v", h.Name(), err)
	}
	return sol
}

// TestAllHeuristicsOnChain checks that every heuristic solves an easy chain
// instance and produces a validated solution. DPA2D is exempt: on a pipeline
// it can enroll only q cores (Section 6.2.1), which this instance permits,
// but its failures on chains are documented paper behaviour.
func TestAllHeuristicsOnChain(t *testing.T) {
	g := testChain(t, 10, 0.03, 0.001)
	pl := platform.XScale(4, 4)
	inst := Instance{Graph: g, Platform: pl, Period: 0.1}
	solved := 0
	for _, h := range All(1) {
		sol := solveOrSkipReason(t, h, inst)
		if sol == nil {
			t.Errorf("%s failed on easy chain", h.Name())
			continue
		}
		solved++
		if sol.Result.MaxCycleTime > inst.Period*(1+1e-9) {
			t.Errorf("%s: cycle time %g exceeds period", h.Name(), sol.Result.MaxCycleTime)
		}
		if sol.Energy() <= 0 {
			t.Errorf("%s: non-positive energy %g", h.Name(), sol.Energy())
		}
	}
	if solved == 0 {
		t.Fatal("no heuristic solved the chain")
	}
}

// TestAllHeuristicsOnForkJoin exercises parallel structure.
func TestAllHeuristicsOnForkJoin(t *testing.T) {
	mid := []float64{0.04, 0.05, 0.06}
	vol := []float64{0.001, 0.001, 0.001}
	g, err := spg.ForkJoin(0.01, 0.01, mid, vol, vol)
	if err != nil {
		t.Fatal(err)
	}
	pl := platform.XScale(4, 4)
	inst := Instance{Graph: g, Platform: pl, Period: 0.08}
	for _, h := range All(2) {
		sol := solveOrSkipReason(t, h, inst)
		if sol == nil {
			t.Logf("%s failed on fork-join (allowed)", h.Name())
			continue
		}
		if sol.Result.MaxCycleTime > inst.Period*(1+1e-9) {
			t.Errorf("%s: cycle time %g exceeds period %g", h.Name(), sol.Result.MaxCycleTime, inst.Period)
		}
	}
}

// TestHeuristicsOnRandomSuites runs every heuristic over a spread of random
// SPGs and verifies that any returned solution passes the evaluator (finish
// already guarantees this; the test asserts feasibility metadata too).
func TestHeuristicsOnRandomSuites(t *testing.T) {
	pl := platform.XScale(4, 4)
	for seed := int64(0); seed < 8; seed++ {
		for _, ccr := range []float64{10, 1} {
			g := testRandomSPG(t, seed, 30, ccr)
			inst := Instance{Graph: g, Platform: pl, Period: 0.1}
			anySolved := false
			for _, h := range All(seed) {
				sol := solveOrSkipReason(t, h, inst)
				if sol == nil {
					continue
				}
				anySolved = true
				if sol.Result.ActiveCores > pl.NumCores() {
					t.Errorf("%s: %d active cores on %d-core grid",
						h.Name(), sol.Result.ActiveCores, pl.NumCores())
				}
			}
			if !anySolved {
				t.Errorf("seed %d ccr %g: no heuristic found a solution", seed, ccr)
			}
		}
	}
}

// TestDPA1DOptimalOnChainBeatsOthers: Section 5.4 argues DPA1D is optimal for
// linear chains (no other mapping can use the links discarded by the snake).
// Its energy must therefore never exceed any other heuristic's on chains.
func TestDPA1DOptimalOnChain(t *testing.T) {
	pl := platform.XScale(4, 4)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 5 + rng.Intn(15)
		g := testChain(t, k, 0, 0)
		spg.RandomizeWeights(g, rng, 0.005, 0.04)
		spg.RandomizeVolumes(g, rng, 0.0001, 0.001)
		inst := Instance{Graph: g, Platform: pl, Period: 0.05}
		d1 := solveOrSkipReason(t, NewDPA1D(), inst)
		if d1 == nil {
			t.Fatalf("seed %d: DPA1D failed on a chain", seed)
		}
		for _, h := range All(seed) {
			sol := solveOrSkipReason(t, h, inst)
			if sol == nil {
				continue
			}
			if sol.Energy() < d1.Energy()*(1-1e-9) {
				t.Errorf("seed %d: %s energy %.6g beats DPA1D %.6g on a chain",
					seed, h.Name(), sol.Energy(), d1.Energy())
			}
		}
	}
}

// TestDPA2DPipelineUsesAtMostQCores reproduces the observation of
// Section 6.2.1: on a pure pipeline DPA2D can enroll at most q cores (one
// per column), since each band holds a single row.
func TestDPA2DPipelineUsesAtMostQCores(t *testing.T) {
	g := testChain(t, 12, 0.05, 0.0001)
	pl := platform.XScale(4, 4)
	inst := Instance{Graph: g, Platform: pl, Period: 0.1}
	sol := solveOrSkipReason(t, NewDPA2D(), inst)
	if sol == nil {
		t.Skip("DPA2D failed (allowed on pipelines when the period is tight)")
	}
	if sol.Result.ActiveCores > pl.Q {
		t.Errorf("DPA2D enrolled %d cores on a pipeline, max should be q=%d",
			sol.Result.ActiveCores, pl.Q)
	}
}

// TestDPA2DInfeasiblePipeline: a pipeline whose total work cannot fit on q
// cores must make DPA2D fail while DPA1D (with p*q cores) succeeds.
func TestDPA2DInfeasiblePipeline(t *testing.T) {
	pl := platform.XScale(4, 4)
	// 12 stages of 0.09 Gcycles each with T=0.1 s: at most ~1 stage per core
	// at full speed, so 4 columns cannot host 12 stages.
	g := testChain(t, 12, 0.09, 0.00001)
	inst := Instance{Graph: g, Platform: pl, Period: 0.1}
	if _, err := NewDPA2D().Solve(inst); !errors.Is(err, ErrNoSolution) {
		t.Errorf("DPA2D error = %v, want ErrNoSolution", err)
	}
	if sol := solveOrSkipReason(t, NewDPA1D(), inst); sol == nil {
		t.Error("DPA1D should solve the 12-stage pipeline on 16 cores")
	}
}

// TestDPA1DFailsOnHighElevation reproduces the paper's DPA1D failure mode:
// state explosion on fat graphs.
func TestDPA1DFailsOnHighElevation(t *testing.T) {
	mid := make([]float64, 20)
	vol := make([]float64, 20)
	for i := range mid {
		mid[i] = 0.01
		vol[i] = 0.0001
	}
	g, err := spg.ForkJoin(0.01, 0.01, mid, vol, vol)
	if err != nil {
		t.Fatal(err)
	}
	h := &DPA1D{MaxStates: 500, MaxTransitions: 10_000}
	_, err = h.Solve(Instance{Graph: g, Platform: platform.XScale(4, 4), Period: 1})
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("error = %v, want ErrNoSolution", err)
	}
}

// TestRandomDeterministicWithSeed: equal seeds give equal results.
func TestRandomDeterministicWithSeed(t *testing.T) {
	g := testRandomSPG(t, 5, 25, 10)
	inst := Instance{Graph: g, Platform: platform.XScale(4, 4), Period: 0.1}
	a, errA := NewRandom(42).Solve(inst)
	b, errB := NewRandom(42).Solve(inst)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("determinism broken: %v vs %v", errA, errB)
	}
	if errA == nil && math.Abs(a.Energy()-b.Energy()) > 1e-12 {
		t.Fatalf("energies differ: %g vs %g", a.Energy(), b.Energy())
	}
}

// TestTightPeriodInfeasibleForAll: a period below the fastest possible
// execution of the heaviest stage must defeat every heuristic.
func TestTightPeriodInfeasibleForAll(t *testing.T) {
	g := testChain(t, 5, 0.5, 0.001) // 0.5 Gcycles per stage
	inst := Instance{Graph: g, Platform: platform.XScale(4, 4), Period: 0.1}
	for _, h := range All(3) {
		if _, err := h.Solve(inst); !errors.Is(err, ErrNoSolution) {
			t.Errorf("%s error = %v, want ErrNoSolution", h.Name(), err)
		}
	}
}

// TestLoosePeriodSingleCore: with a very loose period the best energy is a
// single core at minimum speed; DPA1D must find exactly that.
func TestLoosePeriodSingleCore(t *testing.T) {
	g := testChain(t, 6, 0.01, 0.000001)
	pl := platform.XScale(4, 4)
	inst := Instance{Graph: g, Platform: pl, Period: 10}
	sol := solveOrSkipReason(t, NewDPA1D(), inst)
	if sol == nil {
		t.Fatal("DPA1D failed on a trivial instance")
	}
	if sol.Result.ActiveCores != 1 {
		t.Errorf("active cores = %d, want 1", sol.Result.ActiveCores)
	}
	// Energy must be leak + all work at the slowest speed.
	want := float64(pl.LeakPower*inst.Period) + float64(0.06/pl.Speeds[0]*pl.DynPower[0])
	if math.Abs(sol.Energy()-want) > 1e-9 {
		t.Errorf("energy = %.9g, want %.9g", sol.Energy(), want)
	}
}

// TestFinishRejectsBrokenMapping: the finish wrapper converts evaluator
// rejections into ErrNoSolution so no heuristic can leak invalid mappings.
func TestFinishRejectsBrokenMapping(t *testing.T) {
	g := testChain(t, 3, 0.02, 0.001)
	pl := platform.XScale(2, 2)
	inst := Instance{Graph: g, Platform: pl, Period: 0.1}
	m := mapping.New(3, pl)
	// All stages on one core, but the core is left unpowered.
	for i := range m.Alloc {
		m.Alloc[i] = platform.Core{U: 0, V: 0}
	}
	_, err := finish("test", inst, m)
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("error = %v, want ErrNoSolution", err)
	}
}

// TestSolutionEnergyAccessor covers the Solution convenience method.
func TestSolutionEnergyAccessor(t *testing.T) {
	g := testChain(t, 4, 0.02, 0.001)
	inst := Instance{Graph: g, Platform: platform.XScale(2, 2), Period: 0.2}
	sol, err := NewGreedy().Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Energy() != sol.Result.Energy {
		t.Error("Energy() accessor mismatch")
	}
}
