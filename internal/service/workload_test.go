package service

import (
	"fmt"
	"math"
	"testing"

	"spgcmp/internal/engine"
	"spgcmp/internal/experiments"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
	"spgcmp/internal/workload"
)

// TestCLIWorkloadMatchesMapCell: a command-line -workload/-ccr pair must
// solve the graph /v1/map solves for the same workload, to the bit. Every
// StreamIt application is checked at CCR 10, 1 and 0.1, at its own CCR
// passed through -ccr, and at the -ccr default; a few random SPGs check the
// generation CCR. The /v1/map side derives its analysis as the engine does:
// the family base, then the scale-family member when the cell scales.
func TestCLIWorkloadMatchesMapCell(t *testing.T) {
	type pair struct {
		flag string
		ccr  float64
		ref  workloadRef
	}
	var pairs []pair
	for _, a := range streamit.Suite() {
		for _, ccr := range []float64{10, 1, 0.1, a.CCR, 0} {
			pairs = append(pairs, pair{"streamit:" + a.Name, ccr, workloadRef{StreamIt: a.Name, CCR: ccr}})
		}
	}
	for _, ccr := range []float64{0, 10, 1, 0.1} {
		rw := &engine.RandomWorkload{N: 20, Elevation: 3, Seed: 5, CCR: ccr}
		pairs = append(pairs, pair{"random:n=20,elev=3,seed=5", ccr, workloadRef{Random: rw}})
	}
	for _, pc := range pairs {
		name := fmt.Sprintf("%s/ccr=%g", pc.flag, pc.ccr)
		s, err := workload.Parse(pc.flag)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := experiments.FlagCell(s, pc.ccr, 4, 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := cli.Spec.Analyze()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cell, err := pc.ref.cell(4, 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := cell.Spec.Workload.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cell.Spec.ScaleCCR {
			want = want.ScaleToCCR(cell.Spec.CCR)
		}
		if diff := graphBitsDiff(got.Graph(), want.Graph()); diff != "" {
			t.Errorf("%s: CLI graph differs from the /v1/map cell's: %s", name, diff)
		}
	}
}

// graphBitsDiff names the first stage weight or edge volume whose bits
// differ between g and h, or returns "" when they agree everywhere.
func graphBitsDiff(g, h *spg.Graph) string {
	if g.N() != h.N() || g.M() != h.M() {
		return fmt.Sprintf("shape %d/%d vs %d/%d", g.N(), g.M(), h.N(), h.M())
	}
	for i := range g.Stages {
		if math.Float64bits(g.Stages[i].Weight) != math.Float64bits(h.Stages[i].Weight) {
			return fmt.Sprintf("stage %d weight %.17g vs %.17g", i, g.Stages[i].Weight, h.Stages[i].Weight)
		}
	}
	for i := range g.Edges {
		ge, he := g.Edges[i], h.Edges[i]
		if ge.Src != he.Src || ge.Dst != he.Dst || math.Float64bits(ge.Volume) != math.Float64bits(he.Volume) {
			return fmt.Sprintf("edge %d %+v vs %+v", i, ge, he)
		}
	}
	return ""
}
