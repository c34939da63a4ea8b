package experiments

import (
	"context"
	"fmt"

	"spgcmp/internal/engine"
)

// RandomConfig parameterizes a random-SPG campaign (one panel of
// Figures 10-13 plus its failure statistics).
type RandomConfig struct {
	N             int     // stages per graph: 50 or 150 in the paper
	P, Q          int     // CMP size: 4x4 or 6x6
	CCR           float64 // 10, 1 or 0.1
	MinElevation  int     // first elevation on the x axis (default 1)
	MaxElevation  int     // last elevation: 20 (n=50) or 30 (n=150)
	GraphsPerElev int     // 100 in the paper
	Seed          int64

	// Cache overrides the campaign-scope analysis cache: nil selects the
	// process-wide DefaultAnalysisCache (repeated sweeps over the same
	// configuration — e.g. the 4x4 panel re-run after the 6x6 one on
	// identical seeds, or a service answering the same suite — skip graph
	// generation and analysis entirely); NewAnalysisCache(0) disables the
	// layer.
	Cache *engine.AnalysisCache
}

func (c RandomConfig) withDefaults() RandomConfig {
	if c.MinElevation == 0 {
		c.MinElevation = 1
	}
	if c.GraphsPerElev == 0 {
		c.GraphsPerElev = 100
	}
	return c
}

// validate rejects an empty elevation range and any graph parameters the
// engine's workload check rejects. Cells differ only in elevation and seed,
// and the check reads no seed and wants elevation >= 1, so the range's
// first cell stands for all of them.
func (c RandomConfig) validate() error {
	if c.MaxElevation < c.MinElevation {
		return fmt.Errorf("experiments: bad elevation range [%d, %d]", c.MinElevation, c.MaxElevation)
	}
	first := engine.WorkloadSpec{Random: &engine.RandomWorkload{N: c.N, Elevation: c.MinElevation, CCR: c.CCR}}
	if err := first.Validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// RandomPoint aggregates one elevation value: the mean normalized inverse
// energy per heuristic (the y axis of Figures 10-13; failures contribute 0,
// so heuristics that stop finding solutions sink towards 0 as in the paper's
// plots) and the failure counts.
type RandomPoint struct {
	Elevation   int
	Graphs      int
	MeanInvNorm map[string]float64
	Failures    map[string]int
}

// RandomResult is a full campaign.
type RandomResult struct {
	Config RandomConfig
	Points []RandomPoint
}

// NewRandomCell returns the engine cell of one generated random SPG on a
// p x q grid: the generation parameters are the workload identity (the same
// key always regenerates the identical graph), and the generation seed also
// drives the cell's Random heuristic, exactly as in the legacy loop. The
// CCR is baked into generation, so the cell solves its base analysis as-is.
// The cell is its declarative CellSpec, so a dispatched run can ship it to
// any worker.
func NewRandomCell(n, elevation int, seed int64, ccr float64, p, q int) engine.Cell {
	key, cacheKey := randomKey(n, elevation, seed, ccr)
	return engine.CellSpec{
		Key:      fmt.Sprintf("%s/%dx%d", key, p, q),
		CacheKey: cacheKey,
		Workload: engine.WorkloadSpec{Random: &engine.RandomWorkload{
			N:         n,
			Elevation: elevation,
			Seed:      seed,
			CCR:       ccr,
		}},
		P:    p,
		Q:    q,
		Opts: campaignOptions(seed),
	}.Cell()
}

// randomCellSeed is the legacy per-task seed schedule: distinct multipliers
// keep (elevation, graph) pairs from colliding within a campaign.
func randomCellSeed(cfg RandomConfig, elev, graph int) int64 {
	return cfg.Seed + int64(elev)*1_000_003 + int64(graph)*7919
}

// NumCells returns the number of cells the campaign enumerates, with the
// config's defaults applied — computable without materializing anything, so
// admission control (the service's campaign-size limit) can reject oversized
// requests before RandomCells allocates. Zero for an invalid elevation range.
func (c RandomConfig) NumCells() int64 {
	c = c.withDefaults()
	if c.MaxElevation < c.MinElevation {
		return 0
	}
	return int64(c.MaxElevation-c.MinElevation+1) * int64(c.GraphsPerElev)
}

// RandomCells enumerates one Figure 10-13 panel as engine cells, in the
// legacy task order: elevations ascending, GraphsPerElev graphs per
// elevation.
func RandomCells(cfg RandomConfig) ([]engine.Cell, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var cells []engine.Cell
	for e := cfg.MinElevation; e <= cfg.MaxElevation; e++ {
		for k := 0; k < cfg.GraphsPerElev; k++ {
			cells = append(cells, NewRandomCell(cfg.N, e, randomCellSeed(cfg, e, k), cfg.CCR, cfg.P, cfg.Q))
		}
	}
	return cells, nil
}

// ReduceRandom folds indexed engine results into the per-elevation means and
// failure counts. Cell i is elevation MinElevation + i/GraphsPerElev, graph
// i%GraphsPerElev; the fold visits cells in index order with one accumulator
// per (elevation, heuristic), so it is deterministic and independent of the
// executor's completion order, and its floating-point summation order is the
// legacy loop's. The first generation error aborts the reduction.
func ReduceRandom(cfg RandomConfig, results []engine.CellResult) (*RandomResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	elevations := cfg.MaxElevation - cfg.MinElevation + 1
	if len(results) != elevations*cfg.GraphsPerElev {
		return nil, fmt.Errorf("experiments: %d cell results for %d elevations x %d graphs",
			len(results), elevations, cfg.GraphsPerElev)
	}
	res := &RandomResult{Config: cfg}
	for e := cfg.MinElevation; e <= cfg.MaxElevation; e++ {
		pt := RandomPoint{
			Elevation:   e,
			Graphs:      cfg.GraphsPerElev,
			MeanInvNorm: make(map[string]float64),
			Failures:    make(map[string]int),
		}
		for _, name := range HeuristicNames {
			pt.MeanInvNorm[name] = 0
			pt.Failures[name] = 0
		}
		res.Points = append(res.Points, pt)
	}
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		pt := &res.Points[i/cfg.GraphsPerElev]
		best := r.Result.BestEnergy()
		for _, o := range r.Result.Outcomes {
			if !o.OK {
				pt.Failures[o.Heuristic]++
				pt.MeanInvNorm[o.Heuristic] += 0
				continue
			}
			// best/energy = normalized inverse energy in (0, 1].
			pt.MeanInvNorm[o.Heuristic] += best / o.Energy
		}
	}
	for pi := range res.Points {
		for name := range res.Points[pi].MeanInvNorm {
			res.Points[pi].MeanInvNorm[name] /= float64(cfg.GraphsPerElev)
		}
	}
	return res, nil
}

// RunRandom reproduces one panel of Figures 10-13: for each elevation it
// generates GraphsPerElev random SPGs, selects the period per instance, and
// averages the normalized inverse energies. It is a thin adapter over the
// engine: RandomCells enumerates the panel, the in-process pool executor
// solves it, ReduceRandom folds the indexed results.
func RunRandom(cfg RandomConfig) (*RandomResult, error) {
	cfg = cfg.withDefaults()
	cells, err := RandomCells(cfg)
	if err != nil {
		return nil, err
	}
	cache := cfg.Cache
	if cache == nil {
		cache = DefaultAnalysisCache()
	}
	results, err := engine.Run(context.Background(), nil, engine.Campaign{Cells: cells, Cache: cache})
	if err != nil {
		return nil, err
	}
	return ReduceRandom(cfg, results)
}

// TotalFailures sums failures across all elevations — the rows of Table 3
// (the paper counts 2000 instances per CCR: 20 elevations x 100 graphs).
func (r *RandomResult) TotalFailures() map[string]int {
	total := make(map[string]int, len(HeuristicNames))
	for _, name := range HeuristicNames {
		total[name] = 0
	}
	for _, pt := range r.Points {
		for name, v := range pt.Failures {
			total[name] += v
		}
	}
	return total
}

// Instances returns the number of instances in the campaign.
func (r *RandomResult) Instances() int {
	return len(r.Points) * r.Config.GraphsPerElev
}
