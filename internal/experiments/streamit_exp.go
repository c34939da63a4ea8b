package experiments

import (
	"context"
	"fmt"
	"math"

	"spgcmp/internal/engine"
	"spgcmp/internal/streamit"
)

// StreamItCell is one (application, CCR variant) point of Figures 8-9: the
// heuristic outcomes at the selected period.
type StreamItCell struct {
	App      streamit.App
	CCRLabel string
	Result   engine.InstanceResult
}

// NormalizedEnergy returns, per heuristic, energy divided by the best energy
// on this cell (1 for the winner); failed heuristics are absent.
func (c StreamItCell) NormalizedEnergy() map[string]float64 {
	best := c.Result.BestEnergy()
	norm := make(map[string]float64)
	if math.IsInf(best, 1) {
		return norm
	}
	for _, o := range c.Result.Outcomes {
		if o.OK {
			norm[o.Heuristic] = o.Energy / best
		}
	}
	return norm
}

// StreamItResult is a full campaign on one CMP size: 12 applications times 4
// CCR variants (original, 10, 1, 0.1), 48 instances as in Table 2.
type StreamItResult struct {
	P, Q  int
	Cells []StreamItCell
}

// NewStreamItCell returns the engine cell of one (application, CCR) point on
// a p x q grid: the application's base analysis is keyed in the campaign
// cache and the CCR variant derived as a scale-family member, so every cell
// of the application resolves one shared base. seed drives the cell's Random
// heuristic. The cell is its declarative CellSpec, so a dispatched run can
// ship it to any worker.
func NewStreamItCell(a streamit.App, ccr float64, p, q int, seed int64) engine.Cell {
	key := streamItKey(a)
	return engine.CellSpec{
		Key:      fmt.Sprintf("%s/ccr=%s/%dx%d", key, ccrLabel(ccr, ccr == a.CCR), p, q),
		CacheKey: key,
		Workload: engine.WorkloadSpec{StreamIt: a.Name},
		ScaleCCR: true,
		CCR:      ccr,
		P:        p,
		Q:        q,
		Opts:     campaignOptions(seed),
	}.Cell()
}

// streamItVariants lists the four CCR points of one application in the
// paper's panel order.
func streamItVariants(a streamit.App) []float64 { return []float64{a.CCR, 10, 1, 0.1} }

// StreamItCells enumerates the Figure 8/9 campaign as engine cells: for each
// application (nil = full suite) its four CCR variants in panel order
// (original, 10, 1, 0.1), with the exact per-cell seeds the legacy loop
// used (seed + global variant index).
func StreamItCells(p, q int, apps []streamit.App, seed int64) []engine.Cell {
	if apps == nil {
		apps = streamit.Suite()
	}
	cells := make([]engine.Cell, 0, 4*len(apps))
	for _, a := range apps {
		for _, ccr := range streamItVariants(a) {
			cells = append(cells, NewStreamItCell(a, ccr, p, q, seed+int64(len(cells))))
		}
	}
	return cells
}

// ReduceStreamIt folds indexed engine results back into the campaign table.
// The fold reads only results[i] at Cells[i], so it is order-independent by
// construction: any executor, at any worker count, yields the same table.
// The first build error aborts the reduction, matching the legacy loop.
func ReduceStreamIt(p, q int, apps []streamit.App, results []engine.CellResult) (*StreamItResult, error) {
	if apps == nil {
		apps = streamit.Suite()
	}
	if len(results) != 4*len(apps) {
		return nil, fmt.Errorf("experiments: %d cell results for %d applications", len(results), len(apps))
	}
	res := &StreamItResult{P: p, Q: q, Cells: make([]StreamItCell, len(results))}
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		a := apps[i/4]
		ccr := streamItVariants(a)[i%4]
		res.Cells[i] = StreamItCell{App: a, CCRLabel: ccrLabel(ccr, i%4 == 0), Result: r.Result}
	}
	return res, nil
}

// RunStreamIt reproduces the Figure 8 (4x4) or Figure 9 (6x6) campaign.
// Apps can restrict the applications (nil = full suite). seed drives the
// Random heuristic. Analyses flow through the process-wide campaign cache:
// re-running a campaign (or running the 6x6 grid after the 4x4 one) reuses
// every workload analysis instead of resynthesizing and re-analyzing the
// suite.
func RunStreamIt(p, q int, apps []streamit.App, seed int64) (*StreamItResult, error) {
	return RunStreamItWith(p, q, apps, seed, DefaultAnalysisCache())
}

// RunStreamItWith is RunStreamIt with an explicit campaign cache (nil
// disables the campaign layer; scale-family sharing across the four CCR
// variants of each application is intrinsic and preserved by the engine's
// per-run resolver). It is a thin adapter over the engine: enumerate the
// cells, run them on the in-process pool executor, reduce. Each application
// is analyzed once — through the cache when one is supplied — and its CCR
// variants are derived as scale-family members of that base analysis, so the
// variants share reachability, levels, band shapes, convexity verdicts and
// the interned downset lattice, while seeing bit-identical graphs to a
// from-scratch GraphWithCCR synthesis.
func RunStreamItWith(p, q int, apps []streamit.App, seed int64, cache *engine.AnalysisCache) (*StreamItResult, error) {
	if apps == nil {
		apps = streamit.Suite()
	}
	results, err := engine.Run(context.Background(), nil, engine.Campaign{
		Cells: StreamItCells(p, q, apps, seed),
		Cache: cache,
	})
	if err != nil {
		return nil, err
	}
	return ReduceStreamIt(p, q, apps, results)
}

// FailureCounts returns, per heuristic, the number of instances (out of
// len(Cells)) where the heuristic found no valid mapping — the rows of
// Table 2.
func (r *StreamItResult) FailureCounts() map[string]int {
	counts := make(map[string]int, len(HeuristicNames))
	for _, name := range HeuristicNames {
		counts[name] = 0
	}
	for _, c := range r.Cells {
		for _, o := range c.Result.Outcomes {
			if !o.OK {
				counts[o.Heuristic]++
			}
		}
	}
	return counts
}

// CellsFor returns the cells of one CCR variant in application order,
// matching one panel of Figure 8/9.
func (r *StreamItResult) CellsFor(ccrLabel string) []StreamItCell {
	var out []StreamItCell
	for _, c := range r.Cells {
		if c.CCRLabel == ccrLabel {
			out = append(out, c)
		}
	}
	return out
}

// CCRLabels lists the four panels in paper order.
func CCRLabels() []string { return []string{"orig", "10", "1", "0.1"} }

// String summarizes the campaign.
func (r *StreamItResult) String() string {
	return fmt.Sprintf("StreamIt campaign on %dx%d: %d cells", r.P, r.Q, len(r.Cells))
}
