package spg_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// Analysis.DownsetCount counts the downset lattice from the SP
// decomposition tree alone: no reachability, no interning, no walk. These
// tests hold it against the full Run enumeration.

// enumeratedDownsets counts g's downsets by the full Run enumeration: the
// empty set plus every expansion of it at an unbounded work budget. It
// reports false when the lattice exceeds maxStates.
func enumeratedDownsets(t *testing.T, g *spg.Graph, maxStates int) (uint64, bool) {
	t.Helper()
	ds, err := spg.NewAnalysis(g).DownsetSpace(maxStates)
	if err != nil {
		t.Fatal(err)
	}
	run := ds.NewRun()
	defer run.Close()
	to, _, err := run.Expand(0, math.Inf(1), func(n int) ([]int32, []float64) {
		return make([]int32, n), make([]float64, n)
	})
	if errors.Is(err, spg.ErrStateLimit) {
		return 0, false
	}
	if err != nil {
		t.Fatal(err)
	}
	return uint64(1 + len(to)), true
}

// checkDownsetCount compares the SP-tree count with the enumeration under a
// cap of maxStates: a lattice the SP tree counts within the cap must
// enumerate to exactly that count, and a larger one must run out of states.
// It reports whether the lattice fit.
func checkDownsetCount(t *testing.T, name string, g *spg.Graph, maxStates int) bool {
	t.Helper()
	want := spg.NewAnalysis(g).DownsetCount()
	got, ok := enumeratedDownsets(t, g, maxStates)
	switch {
	case ok != (want <= uint64(maxStates)):
		t.Errorf("%s: enumeration fits %d states: %v, but the SP tree counts %d", name, maxStates, ok, want)
	case ok && got != want:
		t.Errorf("%s: enumerated %d downsets, SP tree counts %d", name, got, want)
	}
	return ok
}

// TestDownsetCountMatchesSPTree: on every Table 1 application whose lattice
// fits the state cap (7 of the 12), the enumeration finds exactly the
// downsets the SP tree counts; the others run out of states, as the count
// says they must.
func TestDownsetCountMatchesSPTree(t *testing.T) {
	fits := 0
	for _, a := range streamit.Suite() {
		g, err := a.BaseGraph()
		if err != nil {
			t.Fatal(err)
		}
		if checkDownsetCount(t, a.Name, g, 1<<16) {
			fits++
		}
	}
	if fits == 0 {
		t.Fatal("no Table 1 lattice fits the state cap")
	}
}

// TestDownsetCountMatchesSPTreeRandom: the same on a seeded sweep of random
// SPGs across sizes and elevations.
func TestDownsetCountMatchesSPTreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	fits := 0
	for i := 0; i < 80; i++ {
		e := 1 + rng.Intn(8)
		n := e + 2 + rng.Intn(30)
		g, err := randspg.Generate(randspg.Params{N: n, Elevation: e, Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		if checkDownsetCount(t, fmt.Sprintf("n %d elevation %d", n, e), g, 1<<14) {
			fits++
		}
	}
	if fits == 0 {
		t.Fatal("no random lattice fits the state cap")
	}
}
