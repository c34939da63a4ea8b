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
	f := NewEnergyFloors(floorsTestGraph(t), pl)
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

// TestEnergyFloorsMinIdxAgreesWithPlatform: MinIdx and StageDynFloor must
// reproduce platform.MinFeasibleSpeed's verdict index for index, at random
// periods and one ulp to either side of every speed's feasibility boundary.
func TestEnergyFloorsMinIdxAgreesWithPlatform(t *testing.T) {
	pl := platform.XScale(4, 4)
	rng := rand.New(rand.NewSource(11))
	wantIdx := func(work, T float64) int {
		if _, idx, ok := pl.MinFeasibleSpeed(work, T); ok {
			return idx
		}
		return -1
	}
	// Stage weights spanning twenty binades, plus a zero-weight stage.
	weights := make([]float64, 200)
	for i := 1; i < len(weights); i++ {
		weights[i] = math.Ldexp(rng.Float64(), rng.Intn(20)-10)
	}
	g, err := spg.Chain(weights, make([]float64, len(weights)-1))
	if err != nil {
		t.Fatal(err)
	}
	f := NewEnergyFloors(g, pl)
	check := func(s int, T float64) {
		t.Helper()
		w := weights[s]
		want := wantIdx(w, T)
		if got := f.MinIdx(w, T); got != want {
			t.Fatalf("MinIdx(%.17g, %.17g) = %d, platform says %d", w, T, got, want)
		}
		floor, ok := f.StageDynFloor(s, T)
		if ok != (want >= 0) {
			t.Fatalf("StageDynFloor(%d, %.17g) ok = %v, platform idx %d", s, T, ok, want)
		}
		if ok && floor != float64(w*f.suffixRatio[want]) {
			t.Fatalf("StageDynFloor(%d, %.17g) = %g, want %g at idx %d", s, T, floor, float64(w*f.suffixRatio[want]), want)
		}
	}
	for s := range weights {
		for trial := 0; trial < 100; trial++ {
			check(s, math.Ldexp(rng.Float64(), rng.Intn(20)-10))
		}
		for _, sp := range pl.Speeds {
			tb := feasibleBoundary(weights[s], sp)
			if tb <= 0 {
				continue
			}
			check(s, tb)
			check(s, math.Nextafter(tb, 0))
			check(s, math.Nextafter(tb, math.Inf(1)))
		}
	}
	check(0, 1)
	if got := f.MinIdx(-1, 1); got != -1 {
		t.Fatalf("MinIdx of negative work = %d, want -1", got)
	}
	if got := f.MinIdx(0.1, 0); got != -1 {
		t.Fatalf("MinIdx at T = 0 = %d, want -1", got)
	}
}

// TestMinFeasiblePeriodBoundary: MinIdx must reproduce the MinFeasibleSpeed
// verdict exactly for arbitrary work, including one ulp to either side of
// every ladder speed's feasibility boundary.
func TestMinFeasiblePeriodBoundary(t *testing.T) {
	pl := platform.XScale(4, 4)
	f := NewEnergyFloors(floorsTestGraph(t), pl)
	rng := rand.New(rand.NewSource(11))
	check := func(work, T float64) {
		t.Helper()
		want := -1
		if _, idx, ok := pl.MinFeasibleSpeed(work, T); ok {
			want = idx
		}
		if got := f.MinIdx(work, T); got != want {
			t.Fatalf("work=%.17g T=%.17g: MinIdx %d, MinFeasibleSpeed idx %d", work, T, got, want)
		}
	}
	for trial := 0; trial < 20000; trial++ {
		work := math.Ldexp(rng.Float64(), rng.Intn(20)-10)
		T := math.Ldexp(rng.Float64(), rng.Intn(20)-10)
		if T <= 0 {
			continue
		}
		check(work, T)
		for _, s := range pl.Speeds {
			tb := feasibleBoundary(work, s)
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

// feasibleBoundary returns the smallest positive period at which speed s
// can process work under platform.MinFeasibleSpeed's predicate, located by
// ulp refinement around the real-arithmetic estimate; 0 for work <= 0.
func feasibleBoundary(work, s float64) float64 {
	feasible := func(T float64) bool { return work <= T*s*(1+1e-12) }
	if work <= 0 {
		return 0
	}
	t := work / (s * (1 + 1e-12))
	for !feasible(t) {
		t = math.Nextafter(t, math.Inf(1))
	}
	for t2 := math.Nextafter(t, 0); t2 > 0 && feasible(t2); t2 = math.Nextafter(t, 0) {
		t = t2
	}
	return t
}

// TestEnergyFloorsAdmissible: DynFloor must never exceed the dynamic energy
// any feasible speed assignment charges — it equals the minimum of
// work*DynPower/Speeds over the feasible suffix — and must stay admissible
// as the cluster grows (adding work never lowers the final cost below the
// floor priced earlier).
func TestEnergyFloorsAdmissible(t *testing.T) {
	pl := platform.XScale(3, 3)
	f := NewEnergyFloors(floorsTestGraph(t), pl)
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
