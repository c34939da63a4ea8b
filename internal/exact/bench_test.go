package exact

import (
	"context"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
)

// BenchmarkExactSolver is the bench-exact CI family: the branch-and-bound
// engine against the exhaustive oracle on seeded random instances (2x2,
// 2x3), plus a 3x3 frontier row timed for branch-and-bound only. The
// exhaustive engine does finish that row, but it needs about 4.7M placements
// (about 9 s) against 16 for branch-and-bound, so it is left out to keep the
// job short; TestBnBFrontierExhaustiveDefaultBudget shows the 4x3 frontier
// row is beyond its whole default budget. CI renames the engine prefixes
// onto a common benchmark name and diffs the two with benchstat, gating on a
// >=5x branch-and-bound speedup at 2x3.
func BenchmarkExactSolver(b *testing.B) {
	rows := []struct {
		name       string
		params     randspg.Params
		p, q       int
		frac       float64 // period as a fraction of total work
		exhaustive bool    // the oracle is timed on this row too
	}{
		{"2x2", randspg.Params{N: 7, Elevation: 2, Seed: 1, CCR: 10}, 2, 2, 0.30, true},
		{"2x3", randspg.Params{N: 9, Elevation: 3, Seed: 1, CCR: 10}, 2, 3, 0.25, true},
		{"3x3", randspg.Params{N: 10, Elevation: 4, Seed: 9, CCR: 10}, 3, 3, 0.20, false},
	}
	instance := func(b *testing.B, i int) core.Instance {
		g, err := randspg.Generate(rows[i].params)
		if err != nil {
			b.Fatal(err)
		}
		var w float64
		for _, st := range g.Stages {
			w += st.Weight
		}
		return core.Instance{Graph: g, Platform: platform.XScale(rows[i].p, rows[i].q), Period: rows[i].frac * w}
	}
	b.Run("bnb", func(b *testing.B) {
		for i := range rows {
			inst := instance(b, i)
			b.Run(rows[i].name, func(b *testing.B) {
				s := NewSolver()
				for n := 0; n < b.N; n++ {
					if _, err := s.Solve(inst); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := range rows {
			if !rows[i].exhaustive {
				continue
			}
			inst := instance(b, i)
			b.Run(rows[i].name, func(b *testing.B) {
				s := NewSolver()
				for n := 0; n < b.N; n++ {
					if _, _, err := s.solveOracle(context.Background(), inst, true); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}
