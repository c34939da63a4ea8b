package core_test

import (
	"fmt"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// solveCertified solves every heuristic on inst (DPA1D on a small state
// budget: a budget changes whether DPA1D succeeds, never whether a success
// is a valid mapping) and fails t when the capacity certificate holds at a
// period one of them meets. It reports whether the certificate holds and
// whether a heuristic succeeded.
func solveCertified(t *testing.T, name string, inst core.Instance) (certified, ok bool) {
	t.Helper()
	certified = core.CapacityInfeasible(inst)
	for _, h := range core.AllWith(core.Options{Seed: 1, DPA1DMaxStates: 2000}) {
		if _, err := h.Solve(inst); err == nil {
			ok = true
			if certified {
				t.Errorf("%s: the capacity certificate holds at T = %g, where %s succeeds", name, inst.Period, h.Name())
			}
		}
	}
	return certified, ok
}

// fullChain is a chain of cores stages, each of weight stage, with light
// edges: at a period of stage/s_max it fills every core at the top speed.
func fullChain(t *testing.T, cores int, stage float64) *spg.Graph {
	t.Helper()
	w := make([]float64, cores)
	for i := range w {
		w[i] = stage
	}
	g, err := spg.Chain(w, make([]float64, cores-1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCapacityInfeasibleAtCapacity: a chain that fills every core at the
// top speed, its total work equal to NumCores·T·s_max, is feasible (one
// stage per core), and the certificate must not hold there, although the
// rounded sum of its weights can exceed the rounded capacity (16 × 0.1 sums
// above 1.6). A chain a hundred-thousandth heavier is certified.
func TestCapacityInfeasibleAtCapacity(t *testing.T) {
	pl := platform.XScale(4, 4)
	for _, T := range []float64{1, 0.1, 0.03, 0.007} {
		stage := T * pl.MaxSpeed()
		name := fmt.Sprintf("full chain at T = %g", T)
		certified, ok := solveCertified(t, name, core.NewInstance(fullChain(t, pl.NumCores(), stage), pl, T))
		if certified || !ok {
			t.Errorf("%s: certified %v, feasible %v; want a feasible period the certificate leaves alone", name, certified, ok)
		}
		heavy := core.NewInstance(fullChain(t, pl.NumCores(), stage*(1+1e-5)), pl, T)
		if certified, _ := solveCertified(t, name+" plus 1e-5", heavy); !certified {
			t.Errorf("%s plus 1e-5: the certificate does not hold above capacity", name)
		}
		// One stage exactly at a core's capacity, beside a light one.
		g, err := spg.Chain([]float64{stage, stage / 100}, []float64{0})
		if err != nil {
			t.Fatal(err)
		}
		name = fmt.Sprintf("full stage at T = %g", T)
		if certified, ok := solveCertified(t, name, core.NewInstance(g, pl, T)); certified || !ok {
			t.Errorf("%s: certified %v, feasible %v; want a feasible period the certificate leaves alone", name, certified, ok)
		}
	}
}

// TestCapacityInfeasibleSound: across the Table 1 applications and seeded
// random SPGs on 2x2 and 4x4, at the protocol's first periods and at each
// graph's capacity period Σw/(NumCores·s_max), the certificate never holds
// where a heuristic succeeds, and the sweep meets both verdicts.
func TestCapacityInfeasibleSound(t *testing.T) {
	var graphs []*spg.Graph
	var names []string
	for _, a := range streamit.Suite() {
		g, err := a.Graph()
		if err != nil {
			t.Fatal(err)
		}
		graphs, names = append(graphs, g), append(names, a.Name)
	}
	for seed := int64(1); seed <= 12; seed++ {
		g, err := randspg.Generate(randspg.Params{N: 20, Elevation: 1 + int(seed%6), Seed: seed, CCR: 1})
		if err != nil {
			t.Fatal(err)
		}
		graphs, names = append(graphs, g), append(names, fmt.Sprintf("random seed %d", seed))
	}
	var certified, feasible int
	for _, grid := range [][2]int{{2, 2}, {4, 4}} {
		pl := platform.XScale(grid[0], grid[1])
		for i, g := range graphs {
			an := spg.NewAnalysis(g)
			capacity := g.TotalWork() / (float64(pl.NumCores()) * pl.MaxSpeed())
			for _, T := range []float64{1, 0.1, 0.01, capacity, capacity * 1.05} {
				inst := core.Instance{Graph: g, Platform: pl, Period: T, Analysis: an}
				c, ok := solveCertified(t, fmt.Sprintf("%s on %dx%d", names[i], grid[0], grid[1]), inst)
				if c {
					certified++
				}
				if ok {
					feasible++
				}
			}
		}
	}
	if certified == 0 || feasible == 0 {
		t.Fatalf("the sweep met %d certified and %d feasible periods; it must meet both", certified, feasible)
	}
}
