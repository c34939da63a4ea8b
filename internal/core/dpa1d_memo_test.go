package core

import (
	"math"
	"testing"

	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

func memoGraph(t *testing.T) *spg.Graph {
	t.Helper()
	g, err := spg.Chain(
		[]float64{0.05, 0.08, 0.03, 0.06, 0.04, 0.07},
		[]float64{0.2, 0.1, 0.3, 0.1, 0.2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The tests in this file pin that DPA1D solves sharing one analysis (its
// run memo and downset space) stay independent: a repeated solve is
// bit-identical, never aliases an earlier caller's mapping, and never
// carries an answer across energy models or periods.

// TestDPA1DSolutionMemoReplay: a repeated solve on the same shared analysis
// returns bit-identical energy and allocation, but a freshly built mapping
// each time (no aliasing between callers).
func TestDPA1DSolutionMemoReplay(t *testing.T) {
	g := memoGraph(t)
	pl := platform.XScale(2, 2)
	inst := NewInstance(g, pl, 0.2)
	h := NewDPA1D()

	first, err := h.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	second, err := h.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(first.Energy()) != math.Float64bits(second.Energy()) {
		t.Fatalf("replayed energy %g != %g", second.Energy(), first.Energy())
	}
	if first.Mapping == second.Mapping {
		t.Fatal("replay aliased the mapping")
	}
	for i := range first.Mapping.Alloc {
		if first.Mapping.Alloc[i] != second.Mapping.Alloc[i] {
			t.Fatalf("stage %d reallocated: %v vs %v", i, first.Mapping.Alloc[i], second.Mapping.Alloc[i])
		}
	}

	// Corrupting a returned solution must not poison later solves.
	second.Mapping.Alloc[0] = platform.Core{U: 1, V: 1}
	third, err := h.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if third.Mapping.Alloc[0] != first.Mapping.Alloc[0] {
		t.Error("mutating a returned mapping leaked into a later solve")
	}
	if math.Float64bits(third.Energy()) != math.Float64bits(first.Energy()) {
		t.Error("post-mutation solve drifted")
	}
}

// TestDPA1DSolutionMemoKeysEnergyModel: two platforms sharing a speed ladder
// but differing in powers must not share solutions — the chunk argmin
// depends on the energy model even when the explored states are identical.
// The shared analysis carries one run memo and one downset space for both,
// so neither may carry platform A's answer over to platform B.
func TestDPA1DSolutionMemoKeysEnergyModel(t *testing.T) {
	g := memoGraph(t)
	h := NewDPA1D()
	plA := platform.XScale(2, 2)
	// Same ladder and bandwidth (same exploration), inverted dynamic-power
	// gradient and free communication: a very different objective.
	plB := platform.XScale(2, 2)
	plB.DynPower = []float64{1.600, 0.900, 0.400, 0.170, 0.080}
	plB.EnergyPerGB = 0
	plB.LeakPower = 2.5

	shared := spg.NewAnalysis(g)
	instA := Instance{Graph: g, Platform: plA, Period: 0.2, Analysis: shared}
	instB := Instance{Graph: g, Platform: plB, Period: 0.2, Analysis: shared}

	solA, err := h.Solve(instA) // warms the shared analysis under plA
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := h.Solve(instB)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := h.Solve(Instance{Graph: g, Platform: plB, Period: 0.2, Analysis: spg.NewAnalysis(g)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gotB.Energy()) != math.Float64bits(wantB.Energy()) {
		t.Fatalf("shared analysis crossed energy models: %g != fresh %g (plA gave %g)",
			gotB.Energy(), wantB.Energy(), solA.Energy())
	}
	for i := range wantB.Mapping.Alloc {
		if gotB.Mapping.Alloc[i] != wantB.Mapping.Alloc[i] {
			t.Fatalf("stage %d: %v != fresh %v", i, gotB.Mapping.Alloc[i], wantB.Mapping.Alloc[i])
		}
	}
}

// TestDPA1DSolutionMemoKeysPeriod: solves at different periods on one shared
// analysis never share solutions.
func TestDPA1DSolutionMemoKeysPeriod(t *testing.T) {
	g := memoGraph(t)
	pl := platform.XScale(2, 2)
	h := NewDPA1D()
	inst := NewInstance(g, pl, 0.5)

	if _, err := h.Solve(inst); err != nil {
		t.Fatal(err)
	}
	tight, err := h.Solve(inst.WithPeriod(0.25))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := h.Solve(Instance{Graph: g, Platform: pl, Period: 0.25, Analysis: spg.NewAnalysis(g)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(tight.Energy()) != math.Float64bits(fresh.Energy()) {
		t.Fatalf("cross-period solve: %g != fresh %g", tight.Energy(), fresh.Energy())
	}
}
