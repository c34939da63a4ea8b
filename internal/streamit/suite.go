// Package streamit reproduces the 12 workflows of the StreamIt benchmark
// suite used in Section 6 of the paper, at the level of detail that drives
// every reported result: the exact size n, elevation y_max, depth x_max and
// computation-to-communication ratio (CCR) of Table 1.
//
// The original StreamIt graph files are not redistributable here, so each
// workflow is synthesized deterministically: a main chain of x_max stages
// composed in parallel with y_max - 1 branches carrying the remaining
// stages, with seeded stage weights in [0.01, 0.1] Gcycles and communication
// volumes scaled to hit the exact CCR. The heuristics only observe
// (structure, w, delta), and Section 6 itself rescales every workflow to
// CCRs 10, 1 and 0.1, so the comparison retains the paper's shape.
package streamit

import (
	"fmt"
	"math/rand"

	"spgcmp/internal/spg"
)

// App describes one StreamIt workflow with its Table 1 characteristics.
type App struct {
	Index int // 1-based position in Table 1
	Name  string
	N     int     // number of stages
	YMax  int     // maximum elevation
	XMax  int     // depth (maximum x label)
	CCR   float64 // original computation-to-communication ratio
}

// Suite returns the 12 workflows of Table 1.
func Suite() []App {
	return []App{
		{1, "Beamformer", 57, 12, 12, 537},
		{2, "ChannelVocoder", 55, 17, 8, 453},
		{3, "Filterbank", 85, 16, 14, 535},
		{4, "FMRadio", 43, 12, 12, 330},
		{5, "Vocoder", 114, 17, 32, 38},
		{6, "BitonicSort", 40, 4, 23, 6},
		{7, "DCT", 8, 1, 8, 68},
		{8, "DES", 53, 3, 45, 7},
		{9, "FFT", 17, 1, 17, 17},
		{10, "MPEG2-noparser", 23, 5, 18, 9},
		{11, "Serpent", 120, 2, 111, 9},
		{12, "TDE", 29, 1, 29, 12},
	}
}

// ByName returns the workflow with the given (case-sensitive) name.
func ByName(name string) (App, error) {
	for _, a := range Suite() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("streamit: unknown workflow %q", name)
}

// Graph synthesizes the workflow with its original CCR.
func (a App) Graph() (*spg.Graph, error) { return a.GraphWithCCR(a.CCR) }

// BaseGraph synthesizes the workflow with its raw, pre-scaling communication
// volumes — the common ancestor of every CCR variant. Campaigns analyze the
// base once and derive the variants through spg.Analysis.ScaleToCCR, which
// shares the structural analysis across the whole family; GraphWithCCR(c) is
// exactly BaseGraph followed by spg.ScaleToCCR(g, c), so both routes yield
// bit-identical graphs.
func (a App) BaseGraph() (*spg.Graph, error) {
	rng := rand.New(rand.NewSource(int64(a.Index) * 7919))
	g, err := spg.BuildShape(a.N, a.YMax, a.XMax, rng)
	if err != nil {
		return nil, fmt.Errorf("streamit: %s: %w", a.Name, err)
	}
	spg.RandomizeWeights(g, rng, 0.01, 0.1)
	spg.RandomizeVolumes(g, rng, 0.5, 1.5)
	g.Stages[0].Name = a.Name
	return g, nil
}

// GraphWithCCR synthesizes the workflow and rescales its communication
// volumes so that the total-computation over total-communication ratio
// equals ccr, as done in Section 6.1.1.
func (a App) GraphWithCCR(ccr float64) (*spg.Graph, error) {
	g, err := a.BaseGraph()
	if err != nil {
		return nil, err
	}
	spg.ScaleToCCR(g, ccr)
	return g, nil
}
