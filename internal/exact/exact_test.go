package exact

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"spgcmp/internal/core"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

func chain(t testing.TB, weights []float64, vols []float64) *spg.Graph {
	t.Helper()
	g, err := spg.Chain(weights, vols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExactSolvesTinyChain(t *testing.T) {
	g := chain(t, []float64{0.05, 0.05, 0.05}, []float64{0.001, 0.001})
	inst := core.Instance{Graph: g, Platform: platform.XScale(2, 2), Period: 0.2}
	sol, err := NewSolver().Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Energy() <= 0 {
		t.Fatalf("energy = %g", sol.Energy())
	}
	// The XScale power curve is strongly superlinear: three cores at
	// 0.4 GHz (170 mW) beat one core at 0.8 GHz (900 mW) despite paying the
	// leakage three times. Optimum: 3 cores on a 1-hop chain placement.
	if sol.Result.ActiveCores != 3 {
		t.Errorf("active cores = %d, want 3", sol.Result.ActiveCores)
	}
	want := float64(3*(float64(inst.Platform.LeakPower*0.2)+0.05/0.4*0.17)) + float64(2*0.001*inst.Platform.EnergyPerGB)
	if math.Abs(sol.Energy()-want) > 1e-9 {
		t.Errorf("energy = %.9g, want %.9g", sol.Energy(), want)
	}
}

// TestNaNGraphFailsFast: a NaN stage weight or edge volume fails every
// heuristic and the exact solver at validation, instead of reaching a
// speed search that never converges on it. Each solve runs under a
// deadline, so a solver that spins fails the test rather than hanging it.
func TestNaNGraphFailsFast(t *testing.T) {
	pl := platform.XScale(2, 2)
	nan := math.NaN()
	for _, g := range []*spg.Graph{
		chain(t, []float64{0.05, nan, 0.05}, []float64{0.001, 0.001}),
		chain(t, []float64{0.05, 0.05, 0.05}, []float64{nan, 0.001}),
	} {
		for _, h := range append(core.All(1), NewSolver()) {
			done := make(chan error, 1)
			go func() {
				_, err := h.Solve(core.Instance{Graph: g, Platform: pl, Period: 1})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "NaN") {
					t.Errorf("%s: error %v, want a NaN validation error", h.Name(), err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: no answer within 5 s on a NaN graph", h.Name())
			}
		}
	}
}

func TestExactRejectsLargeInstances(t *testing.T) {
	w := make([]float64, 20)
	v := make([]float64, 19)
	for i := range w {
		w[i] = 0.01
	}
	g := chain(t, w, v)
	inst := core.Instance{Graph: g, Platform: platform.XScale(2, 2), Period: 1}
	if _, err := NewSolver().Solve(inst); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error = %v, want ErrTooLarge", err)
	}
}

func TestExactInfeasible(t *testing.T) {
	g := chain(t, []float64{0.5, 0.5}, []float64{0.001})
	inst := core.Instance{Graph: g, Platform: platform.XScale(2, 2), Period: 0.1}
	if _, err := NewSolver().Solve(inst); !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("error = %v, want ErrNoSolution", err)
	}
}

// TestDPA1DMatchesExactOnUniLine: Theorem 1 states the uni-directional
// uni-line DP is optimal; on a 1xq platform (where the snake is the line
// itself) the exhaustive solver must agree for chains, and never beat DPA1D
// by more than floating-point noise.
func TestDPA1DMatchesExactOnUniLine(t *testing.T) {
	pl := platform.XScale(1, 4)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 4 + rng.Intn(4)
		w := make([]float64, k)
		v := make([]float64, k-1)
		for i := range w {
			w[i] = 0.01 + float64(0.04*rng.Float64())
		}
		for i := range v {
			v[i] = 0.001 * rng.Float64()
		}
		g := chain(t, w, v)
		inst := core.Instance{Graph: g, Platform: pl, Period: 0.08}

		exactSol, errE := NewSolver().Solve(inst)
		dpaSol, errD := core.NewDPA1D().Solve(inst)
		if (errE == nil) != (errD == nil) {
			t.Fatalf("seed %d: exact err=%v dpa err=%v", seed, errE, errD)
		}
		if errE != nil {
			continue
		}
		if math.Abs(exactSol.Energy()-dpaSol.Energy()) > 1e-9*math.Max(1, exactSol.Energy()) {
			t.Errorf("seed %d: exact %.9g vs DPA1D %.9g", seed, exactSol.Energy(), dpaSol.Energy())
		}
	}
}

// TestExactLowerBoundsHeuristics: on small general SPGs the exhaustive
// optimum must lower-bound every heuristic (same XY routing rules).
func TestExactLowerBoundsHeuristics(t *testing.T) {
	pl := platform.XScale(2, 2)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var build func(n int) *spg.Graph
		build = func(n int) *spg.Graph {
			if n <= 2 {
				return spg.Primitive(1, 1, 1)
			}
			k := 1 + rng.Intn(n-1)
			if rng.Intn(2) == 0 {
				return spg.Series(build(k), build(n-k))
			}
			return spg.Parallel(build(k), build(n-k))
		}
		g := build(7)
		spg.RandomizeWeights(g, rng, 0.01, 0.05)
		spg.RandomizeVolumes(g, rng, 0.0001, 0.001)
		inst := core.Instance{Graph: g, Platform: pl, Period: 0.15}

		exactSol, err := NewSolver().Solve(inst)
		if err != nil {
			if errors.Is(err, core.ErrNoSolution) {
				continue
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, h := range core.All(seed) {
			sol, err := h.Solve(inst)
			if err != nil {
				continue
			}
			if sol.Energy() < exactSol.Energy()*(1-1e-9) {
				t.Errorf("seed %d: %s energy %.9g beats exact %.9g",
					seed, h.Name(), sol.Energy(), exactSol.Energy())
			}
		}
	}
}

func TestWriteILPSmoke(t *testing.T) {
	g := chain(t, []float64{0.02, 0.03, 0.02}, []float64{0.001, 0.002})
	inst := core.Instance{Graph: g, Platform: platform.XScale(2, 2), Period: 0.1}
	var buf bytes.Buffer
	stats, err := WriteILP(&buf, inst)
	if err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"Minimize", "Subject To", "Binary", "End"} {
		if !strings.Contains(text, want) {
			t.Errorf("LP output missing section %q", want)
		}
	}
	// 3 stages x 5 speeds x 4 cores + 5x4 m-vars + 2 pairs x borders.
	if stats.Variables < 80 {
		t.Errorf("suspiciously few variables: %d", stats.Variables)
	}
	if stats.Constraints < 100 {
		t.Errorf("suspiciously few constraints: %d", stats.Constraints)
	}
	if !strings.Contains(text, "x_1_1_1_1") {
		t.Error("missing allocation variable x_1_1_1_1")
	}
	if !strings.Contains(text, "m_1_1_1") {
		t.Error("missing speed variable m_1_1_1")
	}
	if !strings.Contains(text, "cE_1_2_1_1") {
		t.Error("missing communication variable cE_1_2_1_1")
	}
}

func TestWriteILPCountsParallelEdgesOnce(t *testing.T) {
	// Two parallel edges between the same stages must aggregate into one
	// delta(i,j).
	g := spg.Parallel(spg.Primitive(0.01, 0.01, 0.5), spg.Primitive(0.01, 0.01, 0.5))
	inst := core.Instance{Graph: g, Platform: platform.XScale(2, 2), Period: 1}
	var buf bytes.Buffer
	if _, err := WriteILP(&buf, inst); err != nil {
		t.Fatal(err)
	}
	_, binarySection, found := strings.Cut(buf.String(), "Binary")
	if !found {
		t.Fatal("no Binary section")
	}
	if c := strings.Count(binarySection, "cE_1_2_1_1\n"); c != 1 {
		t.Errorf("cE_1_2_1_1 declared %d times, want 1", c)
	}
}

// TestGeneralMappingsLowerBoundDAGPartition implements the paper's
// future-work comparison: dropping the DAG-partition rule can only help, and
// on interleaved-weight chains it strictly helps (a 2-PARTITION-style
// balance that contiguous clusters cannot reach).
func TestGeneralMappingsLowerBoundDAGPartition(t *testing.T) {
	pl := platform.XScale(1, 2) // two cores
	// Weights 0.4, 0.4, 0.1, 0.1: contiguous splits give at best 0.5/0.5?
	// No: {0.4},{0.4,0.1,0.1} = 0.4/0.6, {0.4,0.4},{0.1,0.1} = 0.8/0.2,
	// {0.4,0.4,0.1},{0.1} = 0.9/0.1. General: {0.4,0.1},{0.4,0.1} = 0.5/0.5.
	// At T = 0.625 s the balanced split runs both cores at 0.8 GHz while
	// every DAG-partition needs at least one core at 1 GHz.
	g := chain(t, []float64{0.4, 0.4, 0.1, 0.1}, []float64{1e-6, 1e-6, 1e-6})
	inst := core.Instance{Graph: g, Platform: pl, Period: 0.625}

	dag, err := NewSolver().Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewSolver()
	gen.General = true
	genSol, err := gen.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if genSol.Energy() > dag.Energy()+1e-12 {
		t.Errorf("general optimum %.9g worse than DAG-partition %.9g", genSol.Energy(), dag.Energy())
	}
	if genSol.Energy() >= dag.Energy()-1e-9 {
		t.Errorf("expected a strict gap: general %.9g vs DAG-partition %.9g", genSol.Energy(), dag.Energy())
	}
}

// TestGeneralNeverWorseProperty checks general <= DAG-partition across random
// small instances.
func TestGeneralNeverWorseProperty(t *testing.T) {
	pl := platform.XScale(2, 2)
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var build func(n int) *spg.Graph
		build = func(n int) *spg.Graph {
			if n <= 2 {
				return spg.Primitive(1, 1, 1)
			}
			k := 1 + rng.Intn(n-1)
			if rng.Intn(2) == 0 {
				return spg.Series(build(k), build(n-k))
			}
			return spg.Parallel(build(k), build(n-k))
		}
		g := build(6)
		spg.RandomizeWeights(g, rng, 0.02, 0.08)
		spg.RandomizeVolumes(g, rng, 0.0001, 0.001)
		inst := core.Instance{Graph: g, Platform: pl, Period: 0.2}
		dag, errD := NewSolver().Solve(inst)
		gen := NewSolver()
		gen.General = true
		genSol, errG := gen.Solve(inst)
		if errD != nil {
			if errG == nil {
				continue // general found a solution where DAG-partition failed: fine
			}
			continue
		}
		if errG != nil {
			t.Fatalf("seed %d: general failed where DAG-partition succeeded", seed)
		}
		if genSol.Energy() > dag.Energy()*(1+1e-9) {
			t.Errorf("seed %d: general %.9g > DAG-partition %.9g", seed, genSol.Energy(), dag.Energy())
		}
	}
}

// TestGridSymmetries: group sizes and permutation validity. A 2x2 (or any
// square) grid has the full dihedral group of order 8 (7 non-identity
// elements); rectangular grids keep the 3 non-identity axis flips; a 1xq
// line keeps only its mirror.
func TestGridSymmetries(t *testing.T) {
	cases := []struct{ p, q, want int }{
		{2, 2, 7}, {3, 3, 7}, {2, 3, 3}, {4, 4, 7}, {1, 4, 1}, {1, 1, 0},
		// Degenerate shapes: single columns mirror like single rows (one
		// flip survives deduplication), and the 2x1/1x2 lines are the
		// smallest grids with any symmetry at all. The 1x7/7x1 pair pins
		// that the row/column orientations produce the same group size.
		{4, 1, 1}, {7, 1, 1}, {1, 7, 1}, {2, 1, 1}, {1, 2, 1},
	}
	for _, c := range cases {
		syms := gridSymmetries(c.p, c.q)
		if len(syms) != c.want {
			t.Errorf("%dx%d: %d symmetries, want %d", c.p, c.q, len(syms), c.want)
		}
		for _, perm := range syms {
			seen := make([]bool, c.p*c.q)
			identity := true
			for i, j := range perm {
				if j < 0 || j >= c.p*c.q || seen[j] {
					t.Fatalf("%dx%d: not a permutation: %v", c.p, c.q, perm)
				}
				seen[j] = true
				if i != j {
					identity = false
				}
			}
			if identity {
				t.Errorf("%dx%d: identity leaked into the symmetry list", c.p, c.q)
			}
			// Adjacency preservation: a grid automorphism maps neighbours to
			// neighbours.
			pl := platform.XScale(c.p, c.q)
			for u := 0; u < c.p; u++ {
				for v := 0; v < c.q; v++ {
					for _, d := range [][2]int{{0, 1}, {1, 0}} {
						a := platform.Core{U: u, V: v}
						b := platform.Core{U: u + d[0], V: v + d[1]}
						if !pl.InBounds(b) {
							continue
						}
						ai, bi := perm[u*c.q+v], perm[b.U*c.q+b.V]
						sa := platform.Core{U: ai / c.q, V: ai % c.q}
						sb := platform.Core{U: bi / c.q, V: bi % c.q}
						if !pl.Adjacent(sa, sb) {
							t.Fatalf("%dx%d: symmetry breaks adjacency %v-%v -> %v-%v", c.p, c.q, a, b, sa, sb)
						}
					}
				}
			}
		}
	}
}

// TestSymmetryPruningEquivalence: the symmetry-reduced search must agree
// with the exhaustive oracle enumerating every placement on solvability and on the optimal energy, for
// both DAG-partition and general mappings. Orbit members are equal-energy in
// exact arithmetic but their float sums can differ in the last ulps (core
// energies accumulate in a permuted order), so energies are compared within
// a tight relative tolerance rather than bitwise.
func TestSymmetryPruningEquivalence(t *testing.T) {
	grids := []struct{ p, q int }{{2, 2}, {2, 3}, {1, 4}}
	for _, grid := range grids {
		pl := platform.XScale(grid.p, grid.q)
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(200 + seed))
			var build func(n int) *spg.Graph
			build = func(n int) *spg.Graph {
				if n <= 2 {
					return spg.Primitive(1, 1, 1)
				}
				k := 1 + rng.Intn(n-1)
				if rng.Intn(2) == 0 {
					return spg.Series(build(k), build(n-k))
				}
				return spg.Parallel(build(k), build(n-k))
			}
			g := build(6)
			spg.RandomizeWeights(g, rng, 0.01, 0.05)
			spg.RandomizeVolumes(g, rng, 0.0001, 0.001)
			for _, general := range []bool{false, true} {
				inst := core.Instance{Graph: g, Platform: pl, Period: 0.15}
				pruned := NewSolver()
				pruned.General = general
				full := NewSolver()
				full.General = general
				sp, errP := pruned.Solve(inst)
				sf, _, errF := full.solveOracle(context.Background(), inst, false)
				if (errP == nil) != (errF == nil) {
					t.Fatalf("%dx%d seed %d general=%v: pruned err %v, full err %v",
						grid.p, grid.q, seed, general, errP, errF)
				}
				if errP != nil {
					continue
				}
				if math.Abs(sp.Energy()-sf.Energy()) > 1e-12*math.Max(1, sf.Energy()) {
					t.Errorf("%dx%d seed %d general=%v: pruned %.17g != full %.17g",
						grid.p, grid.q, seed, general, sp.Energy(), sf.Energy())
				}
			}
		}
	}
}

// TestSymmetryPruningTightCapacity drives link loads to the capacity wall
// (huge volumes, one-period chains) where the orbit-recovery path matters:
// the canonical representative of an orbit may route over a saturated link
// while a reflected twin fits.
func TestSymmetryPruningTightCapacity(t *testing.T) {
	pl := platform.XScale(2, 2)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		var build func(n int) *spg.Graph
		build = func(n int) *spg.Graph {
			if n <= 2 {
				return spg.Primitive(1, 1, 1)
			}
			k := 1 + rng.Intn(n-1)
			if rng.Intn(2) == 0 {
				return spg.Series(build(k), build(n-k))
			}
			return spg.Parallel(build(k), build(n-k))
		}
		g := build(6)
		spg.RandomizeWeights(g, rng, 0.005, 0.02)
		// Volumes near BW*T: with T = 0.05 s the per-link budget is 0.96 GB.
		spg.RandomizeVolumes(g, rng, 0.3, 0.95)
		inst := core.Instance{Graph: g, Platform: pl, Period: 0.05}
		pruned, errP := NewSolver().Solve(inst)
		fullSol, _, errF := NewSolver().solveOracle(context.Background(), inst, false)
		if (errP == nil) != (errF == nil) {
			t.Fatalf("seed %d: pruned err %v, full err %v", seed, errP, errF)
		}
		if errP != nil {
			continue
		}
		if math.Abs(pruned.Energy()-fullSol.Energy()) > 1e-12*math.Max(1, fullSol.Energy()) {
			t.Errorf("seed %d: pruned %.17g != full %.17g", seed, pruned.Energy(), fullSol.Energy())
		}
	}
}
