// Package randspg generates random series-parallel workflows by recursive
// series and parallel composition (Section 6.1.1), with exact control of the
// stage count and the elevation — the x-axis of Figures 10-13.
package randspg

import (
	"fmt"
	"math/rand"

	"spgcmp/internal/spg"
)

// Params configures a generation.
type Params struct {
	// N is the exact number of stages: N >= 2 for Elevation 1 and
	// N >= Elevation+2 otherwise (an elevation-e SPG needs a carrier stage
	// on every branch, and parallel edges carry no labels).
	N int
	// Elevation is the exact maximum elevation y_max (>= 1).
	Elevation int
	// Seed drives the structure, weights and volumes deterministically.
	// Stage weights are uniform in [0.01, 0.1] Gcycles, the StreamIt
	// synthesis range, and volumes in [0.5, 1.5] GB.
	Seed int64
	// CCR, when positive, rescales communication volumes to the target
	// computation-to-communication ratio.
	CCR float64
}

// minRoot is the smallest stage count of an SPG with elevation e.
func minRoot(e int) int {
	if e == 1 {
		return 2
	}
	return e + 2
}

// minPar is the smallest stage count of a parallel operand contributing
// elevation e: an elevation-1 operand must have an inner stage (3 nodes) to
// carry a shifted label; higher elevations already guarantee inner carriers.
func minPar(e int) int {
	if e == 1 {
		return 3
	}
	return e + 2
}

// maxElev is the largest elevation reachable with n stages.
func maxElev(n int) int {
	if n < 4 {
		return 1
	}
	return n - 2
}

// Generate builds a random SPG with exactly p.N stages and elevation
// p.Elevation.
func Generate(p Params) (*spg.Graph, error) {
	if p.Elevation < 1 {
		return nil, fmt.Errorf("randspg: elevation must be >= 1, got %d", p.Elevation)
	}
	if p.N < minRoot(p.Elevation) {
		return nil, fmt.Errorf("randspg: elevation %d needs at least %d stages, got %d",
			p.Elevation, minRoot(p.Elevation), p.N)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := build(rng, p.N, p.Elevation)
	if g.N() != p.N || g.Elevation() != p.Elevation {
		return nil, fmt.Errorf("randspg: internal error: built (n=%d, e=%d), want (%d, %d)",
			g.N(), g.Elevation(), p.N, p.Elevation)
	}
	spg.RandomizeWeights(g, rng, 0.01, 0.1)
	spg.RandomizeVolumes(g, rng, 0.5, 1.5)
	if p.CCR > 0 {
		spg.ScaleToCCR(g, p.CCR)
	}
	return g, nil
}

// build returns an SPG with exactly n stages and elevation exactly e
// (n >= minRoot(e)).
//
// Composition arithmetic (Section 3.1):
//
//	series(n1, n2)   -> n1 + n2 - 1 stages, elevation max(e1, e2)
//	parallel(n1, n2) -> n1 + n2 - 2 stages, elevation e1 + e2
//
// The parallel elevation sum only holds when both operands carry their
// maximum label on stages that survive the merge (inner stages), which the
// minPar bounds guarantee regardless of the longest-path swap performed by
// the composition rule.
func build(rng *rand.Rand, n, e int) *spg.Graph {
	if e == 1 {
		return unitChain(n)
	}

	// Parallel split: e = e1 + e2; n + 2 = n1 + n2 with ni >= minPar(ei).
	var parE []int
	for e1 := 1; e1 <= e-1; e1++ {
		if minPar(e1)+minPar(e-e1) <= n+2 {
			parE = append(parE, e1)
		}
	}
	// Series split: one side keeps elevation e and needs minRoot(e) stages;
	// the other side needs at least 2. n1 + n2 = n + 1.
	seriesOK := n-1 >= minRoot(e)

	if len(parE) == 0 && !seriesOK {
		// Unreachable when n >= minRoot(e); defensive fallback.
		panic(fmt.Sprintf("randspg: stuck at n=%d e=%d", n, e))
	}

	pParallel := float64(e) / (float64(e) + float64(n)/3.0)
	useParallel := len(parE) > 0 && (!seriesOK || rng.Float64() < pParallel)

	if useParallel {
		e1 := parE[rng.Intn(len(parE))]
		e2 := e - e1
		lo, hi := minPar(e1), n+2-minPar(e2)
		n1 := lo + rng.Intn(hi-lo+1)
		n2 := n + 2 - n1
		return spg.ParallelWith(build(rng, n1, e1), build(rng, n2, e2), spg.MergeKeepFirst)
	}

	// Series: the elevation-carrying side gets nA in [minRoot(e), n-1].
	lo, hi := minRoot(e), n-1
	nA := lo + rng.Intn(hi-lo+1)
	nB := n + 1 - nA
	eB := 1
	if cap := min(e, maxElev(nB)); cap > 1 {
		eB = 1 + rng.Intn(cap)
	}
	a := build(rng, nA, e)
	b := build(rng, nB, eB)
	if rng.Intn(2) == 0 {
		return spg.SeriesWith(a, b, spg.MergeKeepFirst)
	}
	return spg.SeriesWith(b, a, spg.MergeKeepFirst)
}

func unitChain(n int) *spg.Graph {
	w := make([]float64, n)
	v := make([]float64, n-1)
	for i := range w {
		w[i] = 1
	}
	for i := range v {
		v[i] = 1
	}
	g, err := spg.Chain(w, v)
	if err != nil {
		panic(err) // n >= 2 guaranteed by callers
	}
	return g
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
