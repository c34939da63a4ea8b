package mapping

import (
	"math/rand"
	"testing"

	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
)

// prefixPanel enumerates random partitions of a seeded graph and checks the
// account's two invariants against the real evaluator on every complete
// placement:
//
//   - the running bound Floor + sum of PlaceExtra terms is admissible at
//     every prefix (never exceeds the final evaluated energy), and
//   - at the leaf it reconstructs the evaluator's energy to within float
//     summation-order noise.
//
// Placements are evaluated with EvaluateGeneral so link capacity never
// filters the sample (the bound must hold for valid and invalid placements
// alike — the solver prunes before checking validity).
func TestPrefixAccountAdmissibleAndTight(t *testing.T) {
	g, err := randspg.Generate(randspg.Params{N: 9, Elevation: 3, Seed: 17, CCR: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl := platform.XScale(2, 3)
	var total float64
	for _, st := range g.Stages {
		total += st.Weight
	}
	T := 0.5 * total
	rng := rand.New(rand.NewSource(71))
	cores := pl.NumCores()
	account := NewPrefixAccount(g.N(), HopExcess(pl))

	checked := 0
	for trial := 0; trial < 400; trial++ {
		// Random partition into k clusters (not necessarily DAG — the
		// account is partition-shape-agnostic).
		k := 1 + rng.Intn(cores)
		part := make([]int, g.N())
		seen := 0
		for i := range part {
			c := rng.Intn(min(seen+1, k))
			part[i] = c
			if c == seen {
				seen++
			}
		}
		k = seen
		if !account.Reset(g, pl, T, part, k) {
			continue
		}
		// Random injective placement, scored incrementally.
		perm := rng.Perm(cores)[:k]
		bound := account.Floor
		for c := 0; c < k; c++ {
			bound += account.PlaceExtra(pl, c, perm[c], perm[:c])
		}
		m := New(g.N(), pl)
		for i := range g.Stages {
			coreIdx := perm[part[i]]
			m.Alloc[i] = platform.Core{U: coreIdx / pl.Q, V: coreIdx % pl.Q}
		}
		if !m.DowngradeSpeeds(g, pl, T) {
			continue
		}
		res, err := EvaluateGeneral(g, pl, m, T)
		if err != nil {
			continue
		}
		checked++
		if bound > res.Energy*(1+1e-9) {
			t.Fatalf("trial %d: leaf bound %.17g exceeds evaluated energy %.17g", trial, bound, res.Energy)
		}
		if bound < res.Energy*(1-1e-9) {
			t.Fatalf("trial %d: leaf bound %.17g is not tight against %.17g — a term is missing", trial, bound, res.Energy)
		}
		// Every prefix bound must also be admissible on its own.
		prefix := account.Floor
		for c := 0; c < k; c++ {
			prefix += account.PlaceExtra(pl, c, perm[c], perm[:c])
			if prefix > res.Energy*(1+1e-9) {
				t.Fatalf("trial %d: prefix bound after %d placements %.17g exceeds %.17g", trial, c+1, prefix, res.Energy)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d valid samples — panel too thin", checked)
	}
}

// TestPrefixAccountSymmetryInvariant: Floor and every PlaceExtra term must
// be identical across grid-automorphism images of a placement prefix, the
// property that lets bound pruning compose with orbit canonicity pruning.
func TestPrefixAccountSymmetryInvariant(t *testing.T) {
	g, err := randspg.Generate(randspg.Params{N: 8, Elevation: 2, Seed: 5, CCR: 10})
	if err != nil {
		t.Fatal(err)
	}
	pl := platform.XScale(2, 2)
	var total float64
	for _, st := range g.Stages {
		total += st.Weight
	}
	T := 0.35 * total
	// The 2x2 grid's rotation by 180 degrees as a core permutation.
	perm180 := []int{3, 2, 1, 0}

	part := make([]int, g.N())
	for i := range part {
		part[i] = i % 4
	}
	account := NewPrefixAccount(g.N(), HopExcess(pl))
	if !account.Reset(g, pl, T, part, 4) {
		t.Fatal("partition infeasible")
	}
	floor := account.Floor
	place := []int{0, 1, 2, 3}
	img := make([]int, 4)
	for c, coreIdx := range place {
		img[c] = perm180[coreIdx]
	}
	var a, b float64
	for c := 0; c < 4; c++ {
		a += account.PlaceExtra(pl, c, place[c], place[:c])
		b += account.PlaceExtra(pl, c, img[c], img[:c])
	}
	if a != b {
		t.Errorf("hop excess differs across the orbit: %.17g vs %.17g", a, b)
	}
	if account.Floor != floor {
		t.Errorf("Floor changed while placing: %.17g vs %.17g", account.Floor, floor)
	}
}
