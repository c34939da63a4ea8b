package core

import (
	"math"
	"math/rand"
	"testing"

	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
)

func floorsTestGraph(t *testing.T) *spg.Graph {
	t.Helper()
	g, err := randspg.Generate(randspg.Params{N: 12, Elevation: 3, Seed: 21, CCR: 10})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEnergyFloorsSuffixRatio: suffixRatio[i] must be the exact minimum of
// DynPower[j]/Speeds[j] over j >= i. On the XScale ladder the ratio dips at
// an interior speed, so the test also pins that the suffix minimum differs
// from the pointwise ratio somewhere — the non-monotonicity the bound
// exists to survive.
func TestEnergyFloorsSuffixRatio(t *testing.T) {
	pl := platform.XScale(3, 3)
	f := newEnergyFloors(floorsTestGraph(t), pl)
	dipped := false
	for i := range pl.Speeds {
		want := math.Inf(1)
		for j := i; j < len(pl.Speeds); j++ {
			if r := pl.DynPower[j] / pl.Speeds[j]; r < want {
				want = r
			}
		}
		if f.suffixRatio[i] != want {
			t.Errorf("suffixRatio[%d] = %g, want %g", i, f.suffixRatio[i], want)
		}
		if f.suffixRatio[i] != pl.DynPower[i]/pl.Speeds[i] {
			dipped = true
		}
	}
	if !dipped {
		t.Error("suffix minimum equals the pointwise ratio everywhere — ladder no longer dips, bound untested")
	}
}

// TestEnergyFloorsMinIdxAgreesWithPlatform: MinIdx and StageMinIdx must
// reproduce platform.MinFeasibleSpeed's verdict index for index, including
// at randomly probed periods around the feasibility boundaries.
func TestEnergyFloorsMinIdxAgreesWithPlatform(t *testing.T) {
	pl := platform.XScale(3, 3)
	g := floorsTestGraph(t)
	f := newEnergyFloors(g, pl)
	rng := rand.New(rand.NewSource(31))
	wantIdx := func(work, T float64) int {
		if _, idx, ok := pl.MinFeasibleSpeed(work, T); ok {
			return idx
		}
		return -1
	}
	for trial := 0; trial < 2000; trial++ {
		work := float64(rng.Float64() * 0.3)
		T := rng.Float64() * 0.4
		if got, want := f.MinIdx(work, T), wantIdx(work, T); got != want {
			t.Fatalf("MinIdx(%g, %g) = %d, platform says %d", work, T, got, want)
		}
	}
	for s := range g.Stages {
		for trial := 0; trial < 200; trial++ {
			T := rng.Float64() * 0.4
			if got, want := f.StageMinIdx(s, T), wantIdx(g.Stages[s].Weight, T); got != want {
				t.Fatalf("StageMinIdx(%d, %g) = %d, platform says %d", s, T, got, want)
			}
		}
		// Exactly at each threshold the speed must be feasible.
		for i, tmin := range f.stageThr[s] {
			if got := f.StageMinIdx(s, tmin); got > i {
				t.Fatalf("stage %d at its own threshold for speed %d: MinIdx %d", s, i, got)
			}
		}
	}
}

// TestEnergyFloorsAdmissible: DynFloor must never exceed the dynamic energy
// any feasible speed assignment charges — it equals the minimum of
// work*DynPower/Speeds over the feasible suffix — and must stay admissible
// as the cluster grows (adding work never lowers the final cost below the
// floor priced earlier).
func TestEnergyFloorsAdmissible(t *testing.T) {
	pl := platform.XScale(3, 3)
	f := newEnergyFloors(floorsTestGraph(t), pl)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		work := float64(rng.Float64() * 0.3)
		T := 0.05 + float64(rng.Float64()*0.3)
		floor, ok := f.DynFloor(work, T)
		idx := f.MinIdx(work, T)
		if (idx >= 0) != ok {
			t.Fatalf("DynFloor ok=%v but MinIdx=%d", ok, idx)
		}
		if !ok {
			continue
		}
		// Exact: the cheapest feasible pricing of this work.
		want := math.Inf(1)
		for j := idx; j < len(pl.Speeds); j++ {
			if e := work * (pl.DynPower[j] / pl.Speeds[j]); e < want {
				want = e
			}
		}
		if floor != want {
			t.Fatalf("DynFloor(%g, %g) = %g, cheapest feasible pricing %g", work, T, floor, want)
		}
		// Admissible under growth: a bigger cluster can only move its
		// feasible suffix up, where the suffix minimum is no smaller.
		grown := work + float64(rng.Float64()*0.1)
		if gf, gok := f.DynFloor(grown, T); gok {
			scaled := floor / work * grown
			if gf < scaled*(1-1e-12) && work > 0 {
				t.Fatalf("growth lowered the per-work floor: %g/%g -> %g/%g", floor, work, gf, grown)
			}
		}
	}
}

// TestEnergyFloorsSharedAcrossCCR: the tables hang off the scale family's
// shared analysis, so every CCR variant of a family and repeated calls
// return the same instance per energy signature, and distinct signatures
// get distinct tables.
func TestEnergyFloorsSharedAcrossCCR(t *testing.T) {
	g := floorsTestGraph(t)
	an := spg.NewAnalysis(g)
	pl := platform.XScale(3, 3)
	f1 := FloorsFor(an, pl)
	if f2 := FloorsFor(an, pl); f2 != f1 {
		t.Error("repeated FloorsFor rebuilt the tables")
	}
	variant := an.ScaleToCCR(2.5)
	if f3 := FloorsFor(variant, pl); f3 != f1 {
		t.Error("CCR variant did not share the family's floor tables")
	}
	if f4 := FloorsFor(an, platform.XScale(2, 2)); f4 != f1 {
		// Same energy signature regardless of grid shape is fine; only a
		// changed signature must key a fresh table.
		if energySig(platform.XScale(2, 2)) != energySig(pl) {
			t.Error("distinct energy signatures shared one table")
		}
	}
}
