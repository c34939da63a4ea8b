package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"spgcmp/internal/engine"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
	"spgcmp/internal/workload"
)

// WorkloadCell lowers a workload as a /v1/map request names it onto its
// engine cell on a p x q grid: a StreamIt application at ccr (0 selects the
// application's own CCR) or a random SPG, whose CCR is baked into
// generation. It is the one lowering behind /v1/map, /v1/map/batch and the
// command-line tools, so all of them solve the graph the campaign cell
// solves. seed drives a StreamIt cell's Random heuristic; a random SPG's
// generation seed drives its own.
func WorkloadCell(w engine.WorkloadSpec, ccr float64, p, q int, seed int64) (engine.Cell, error) {
	switch {
	case w.StreamIt != "" && w.Random != nil:
		return engine.Cell{}, fmt.Errorf("workload names both streamit and random")
	case w.StreamIt != "":
		a, err := streamit.ByName(w.StreamIt)
		if err != nil {
			return engine.Cell{}, err
		}
		if ccr == 0 {
			ccr = a.CCR
		}
		if ccr < 0 {
			return engine.Cell{}, fmt.Errorf("ccr %g is negative", ccr)
		}
		return NewStreamItCell(a, ccr, p, q, seed), nil
	case w.Random != nil:
		if err := w.Validate(); err != nil {
			return engine.Cell{}, err
		}
		rw := w.Random
		return NewRandomCell(rw.N, rw.Elevation, rw.Seed, rw.CCR, p, q), nil
	default:
		return engine.Cell{}, fmt.Errorf("workload names neither streamit nor random")
	}
}

// FlagCell lowers a parsed -workload flag and the -ccr flag of the
// command-line tools onto an engine cell. streamit: and random: mean what a
// /v1/map request means by them (WorkloadCell; -ccr is a random SPG's
// generation CCR). chain: and file: become inline graphs, solved as given or,
// when ccr > 0, as their ccr scale-family member.
func FlagCell(s workload.Spec, ccr float64, p, q int, seed int64) (engine.Cell, error) {
	// A flag can say NaN, which a JSON request cannot; it would scale every
	// volume to NaN.
	if math.IsNaN(ccr) {
		return engine.Cell{}, fmt.Errorf("ccr is NaN")
	}
	var (
		g   *spg.Graph
		err error
	)
	switch s.Kind {
	case workload.StreamIt:
		return WorkloadCell(engine.WorkloadSpec{StreamIt: s.Name}, ccr, p, q, seed)
	case workload.Random:
		rw := &engine.RandomWorkload{N: s.N, Elevation: s.Elevation, Seed: s.Seed, CCR: ccr}
		return WorkloadCell(engine.WorkloadSpec{Random: rw}, 0, p, q, seed)
	case workload.Chain:
		g, err = chainGraph(s.N, s.Seed)
	case workload.File:
		g, err = readGraph(s.Name)
	default:
		err = fmt.Errorf("workload: unknown kind %q", s.Kind)
	}
	if err != nil {
		return engine.Cell{}, err
	}
	if ccr < 0 {
		return engine.Cell{}, fmt.Errorf("ccr %g is negative", ccr)
	}
	return engine.CellSpec{
		Key:      fmt.Sprintf("inline/%s/%dx%d", s.Kind, p, q),
		Workload: engine.WorkloadSpec{Inline: g},
		ScaleCCR: ccr > 0,
		CCR:      ccr,
		P:        p,
		Q:        q,
		Opts:     campaignOptions(seed),
	}.Cell(), nil
}

// chainGraph generates the chain: workload, n stages with weights and
// volumes drawn from seed over the StreamIt synthesis ranges.
func chainGraph(n int, seed int64) (*spg.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("workload: chain needs n >= 2")
	}
	g, err := spg.Chain(make([]float64, n), make([]float64, n-1))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	spg.RandomizeWeights(g, rng, 0.01, 0.1)
	spg.RandomizeVolumes(g, rng, 0.5, 1.5)
	return g, nil
}

// readGraph decodes the file: workload, a JSON graph.
func readGraph(path string) (*spg.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return spg.ReadJSON(f)
}
