package spg

import (
	"fmt"
	"math/rand"
)

// BuildShape constructs an SPG with exactly n stages, elevation ymax and
// depth xmax, by composing a main chain of xmax stages in parallel with
// ymax-1 branches that carry the remaining n-xmax stages. All weights and
// volumes are 1; callers randomize them afterwards (see RandomizeWeights and
// RandomizeVolumes). rng controls how the branch sizes and anchor points are
// spread; a nil rng yields a deterministic balanced shape.
//
// Feasibility requires xmax >= 2, 1 <= ymax, n >= xmax, and:
//   - extra := n - xmax >= ymax - 1 (each branch holds at least one stage);
//   - every branch fits over the main chain: branch size <= xmax - 2 + 1,
//     i.e. a branch of k inner stages spans k+1 <= xmax - 1 edges... in
//     practice k <= xmax-2 guarantees the branch is strictly shorter than the
//     chain segment it parallels, so depth stays xmax.
func BuildShape(n, ymax, xmax int, rng *rand.Rand) (*Graph, error) {
	if xmax < 2 {
		return nil, fmt.Errorf("spg: BuildShape needs xmax >= 2, got %d", xmax)
	}
	if ymax < 1 {
		return nil, fmt.Errorf("spg: BuildShape needs ymax >= 1, got %d", ymax)
	}
	if n < xmax {
		return nil, fmt.Errorf("spg: BuildShape needs n >= xmax (n=%d, xmax=%d)", n, xmax)
	}
	extra := n - xmax
	branches := ymax - 1
	if extra < branches {
		return nil, fmt.Errorf("spg: BuildShape cannot reach elevation %d with only %d spare stages", ymax, extra)
	}
	if branches == 0 && extra > 0 {
		return nil, fmt.Errorf("spg: BuildShape with ymax=1 requires n == xmax")
	}
	maxBranch := xmax - 2
	if branches > 0 && maxBranch < 1 {
		return nil, fmt.Errorf("spg: BuildShape needs xmax >= 3 to host parallel branches")
	}
	if branches > 0 && extra > branches*maxBranch {
		return nil, fmt.Errorf("spg: BuildShape cannot place %d spare stages in %d branches of at most %d stages",
			extra, branches, maxBranch)
	}

	// Split the extra stages across branches as evenly as possible, then
	// optionally jitter with rng while respecting the per-branch bounds.
	sizes := make([]int, branches)
	for i := range sizes {
		sizes[i] = extra / branches
		if i < extra%branches {
			sizes[i]++
		}
	}
	if rng != nil && branches > 1 {
		for it := 0; it < 4*branches; it++ {
			a, b := rng.Intn(branches), rng.Intn(branches)
			if a != b && sizes[a] > 1 && sizes[b] < maxBranch {
				sizes[a]--
				sizes[b]++
			}
		}
	}

	unitChain := func(k int) *Graph {
		w := make([]float64, k)
		v := make([]float64, k-1)
		for i := range w {
			w[i] = 1
		}
		for i := range v {
			v[i] = 1
		}
		c, err := Chain(w, v)
		if err != nil {
			panic(err) // k >= 2 by construction
		}
		return c
	}

	g := unitChain(xmax)
	for _, k := range sizes {
		if k == 0 {
			continue
		}
		// A branch of k inner stages is a chain of k+2 stages whose endpoints
		// merge with the main source and sink during parallel composition.
		branch := unitChain(k + 2)
		g = ParallelWith(g, branch, MergeKeepFirst)
	}
	if got := g.N(); got != n {
		return nil, fmt.Errorf("spg: BuildShape internal error: built %d stages, want %d", got, n)
	}
	if got := g.Elevation(); got != ymax {
		return nil, fmt.Errorf("spg: BuildShape internal error: elevation %d, want %d", got, ymax)
	}
	if got := g.Depth(); got != xmax {
		return nil, fmt.Errorf("spg: BuildShape internal error: depth %d, want %d", got, xmax)
	}
	return g, nil
}

// RandomizeWeights assigns every stage an independent uniform weight in
// [min, max).
func RandomizeWeights(g *Graph, rng *rand.Rand, min, max float64) {
	for i := range g.Stages {
		g.Stages[i].Weight = min + float64(rng.Float64()*(max-min))
	}
}

// RandomizeVolumes assigns every edge an independent uniform volume in
// [min, max).
func RandomizeVolumes(g *Graph, rng *rand.Rand, min, max float64) {
	for i := range g.Edges {
		g.Edges[i].Volume = min + float64(rng.Float64()*(max-min))
	}
}
