// Package engine decomposes the paper's evaluation campaigns into
// deterministic, individually-addressable cells and executes them on an
// in-process Executor, optionally through a cluster Dispatcher, folding
// results with order-independent reducers so an engine-run campaign is
// bit-identical to the legacy monolithic loops it replaced (see the
// equivalence tests in internal/experiments).
//
// A cell is one (workload identity x CCR x platform x solver options) point:
// solving it runs the Section 6.1.3 period-selection protocol, which reports
// all five heuristics at the period it selects, so every (app, CCR,
// heuristic) outcome of the paper's figures is addressable as (cell key,
// heuristic) in the cell's result. A cell is its declarative,
// JSON-serializable CellSpec, from which WorkloadSpec.Build regenerates the
// seeded instance — which is what lets a run place cells anywhere: on the
// in-process PoolExecutor, whose workers own their solver arenas, or through
// the Dispatcher, which ships family-aligned spec chunks to remote worker
// processes over HTTP/JSON and reassembles their wire results, bit-identical
// to a local run at any worker count (cells are deterministic, so retries
// after worker failures are safe). Whatever a Dispatcher does not ship runs
// on the run's Executor, through the same family-interleaved loop as a
// campaign without workers.
//
// The engine threads the campaign-scope AnalysisCache through the executor:
// cells sharing a workload family (the CCR variants of one application)
// resolve one base analysis and derive their variants as scale-family
// members, exactly as the pre-engine campaign path did. When the campaign
// layer is disabled the engine still shares family bases within the run —
// scale-family sharing is intrinsic to a campaign, not a caching policy —
// through a private per-run resolver that retains only keys used by more
// than one cell.
package engine

import (
	"context"

	"spgcmp/internal/core"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// Cell is one deterministic, individually-addressable unit of campaign work:
// its declarative CellSpec. The spec describes the work — workload identity,
// CCR, grid, period divisions, heuristic options — and WorkloadSpec.Build
// rebuilds the seeded instance from it, so a cell can be re-executed
// anywhere (any process, any number of times) with bit-identical results;
// that is the property the Dispatcher relies on to ship cells over the wire.
// Workloads without a generative identity travel as inline graphs.
type Cell struct {
	// Spec is the cell's declarative identity and wire form.
	Spec CellSpec
}

// CellResult is one solved cell. Err is a workload build failure; Feasible
// is the period protocol's verdict (false when every heuristic fails at 1 s).
type CellResult struct {
	Index    int            `json:"index"`
	Key      string         `json:"key"`
	Feasible bool           `json:"feasible"`
	Result   InstanceResult `json:"result"`
	Err      error          `json:"-"`
}

// Campaign is a batch of cells plus the shared resources of their run.
type Campaign struct {
	Cells []Cell
	// Cache is the campaign-scope analysis cache threaded through the
	// executor. nil or disabled keeps family sharing within this run only
	// (see the package comment).
	Cache *AnalysisCache
	// Dispatcher, when set with a non-empty registry, ships the cells to
	// remote workers; chunks no worker can serve fall back onto the run's
	// Executor. nil, or an empty registry, runs every cell locally.
	Dispatcher *Dispatcher
	// OnCell, when set, observes every completed cell (called from executor
	// goroutines, possibly concurrently; results arrive in completion order,
	// not index order). Progress reporting for the mapping service.
	OnCell func(CellResult)
	// Store is the content-addressed cell-outcome store consulted before any
	// cell reaches the executor and populated as cells complete: a stored
	// outcome is served in place of a re-solve (byte-identical, by per-cell
	// determinism), so only the genuinely novel cells are dispatched. nil or
	// disabled solves every cell.
	Store *ResultStore
}

// Run executes every cell of the campaign and returns the results indexed
// by cell, so any fold over them is deterministic and order-independent
// regardless of worker count or completion order. Cells run locally on ex
// (nil selects an in-process PoolExecutor at GOMAXPROCS), started in
// family-interleaved order (see familyInterleave) with the executor's
// worker-owned arenas; with a Campaign.Dispatcher that has workers, the
// dispatcher ships the cells and only its fallen-back chunks reach ex. On
// context cancellation the indexed slice is returned alongside the context
// error with the unstarted cells zero-valued (Key empty).
//
// With an enabled Campaign.Store, every cell is first looked up by its
// canonical content hash: hits are recorded immediately (OnCell fires as
// usual) and never reach the executor, and the misses that do run populate
// the store on completion. Cells whose spec fails to hash bypass the store
// and always solve.
func Run(ctx context.Context, ex Executor, c Campaign) ([]CellResult, error) {
	if ctx == nil {
		//spglint:ignore ctxflow nil-ctx compatibility default for library callers; request paths always pass a real context
		ctx = context.Background()
	}
	if ex == nil {
		ex = &PoolExecutor{}
	}
	results := make([]CellResult, len(c.Cells))
	record := func(r CellResult) {
		if r.Index >= 0 && r.Index < len(results) {
			results[r.Index] = r
		}
		if c.OnCell != nil {
			c.OnCell(r)
		}
	}
	// The executor sees only the store misses, at sub-campaign indexes;
	// missIdx maps them back to absolute cell indexes and missKey remembers
	// each runnable cell's content hash ("" = not storable) for the Put on
	// completion. With the store disabled the sub-campaign is the campaign.
	run := c.Cells
	var (
		missIdx []int
		missKey []string
	)
	if c.Store.enabled() {
		run = nil
		missIdx = make([]int, 0, len(c.Cells))
		missKey = make([]string, 0, len(c.Cells))
		for i, cell := range c.Cells {
			key := ""
			if k, err := cell.Spec.ContentKey(); err == nil {
				key = k
				// A stored answer that fails to decode (unreachable for
				// answers EncodeAnswer wrote) solves again.
				if a, ok := c.Store.Get(k); ok {
					if r, err := a.Decode(); err == nil {
						r.Index = i
						r.Key = cell.Spec.Key
						record(r)
						continue
					}
				}
			}
			run = append(run, cell)
			missIdx = append(missIdx, i)
			missKey = append(missKey, key)
		}
		if len(run) == 0 {
			return results, ctx.Err()
		}
	}
	resolve := newResolver(run, c.Cache)
	rec := record
	if missIdx != nil {
		rec = func(r CellResult) {
			if r.Index >= 0 && r.Index < len(missIdx) {
				if key := missKey[r.Index]; key != "" {
					if a, err := EncodeAnswer(r); err == nil {
						c.Store.Put(key, a)
					}
				}
				r.Index = missIdx[r.Index]
			}
			record(r)
		}
	}
	// local starts the sub-campaign cells idx on ex in family-interleaved
	// order, each on its worker's arena: a campaign without workers runs
	// every cell this way, and a Dispatcher runs its fallen-back chunks so.
	local := func(idx []int) error {
		order := familyInterleave(run, idx)
		return ex.ExecuteScratch(ctx, len(order), func(k int, sc *core.Scratch) {
			j := order[k]
			rec(solveCellScratch(j, run[j], resolve, sc))
		})
	}
	if d := c.Dispatcher; d != nil && d.Registry.Len() > 0 {
		return results, d.executeCampaign(ctx, run, local, rec)
	}
	all := make([]int, len(run))
	for i := range all {
		all[i] = i
	}
	return results, local(all)
}

// familyInterleave returns the cell indexes idx in the order a local
// executor starts them: round-robin across CacheKey groups, taken in order
// of first appearance in idx, each group's cells in idx order; a cell with
// an empty CacheKey is a group of its own. The CCR siblings of one
// application share a lattice and its DPA1D verdicts, and a sibling about
// to repeat a DPA1D run another is executing waits for that run's verdict. Index order would
// hand concurrent workers siblings of one application, which then idle on
// each other; interleaving hands them different applications. Every result
// keeps its cell index, so the order changes no byte.
func familyInterleave(cells []Cell, idx []int) []int {
	var groups [][]int
	groupOf := make(map[string]int)
	for _, i := range idx {
		key := cells[i].Spec.CacheKey
		g, ok := groupOf[key]
		if !ok || key == "" {
			g = len(groups)
			groups = append(groups, nil)
			groupOf[key] = g
		}
		groups[g] = append(groups[g], i)
	}
	order := make([]int, 0, len(idx))
	for len(groups) > 0 {
		live := groups[:0]
		for _, g := range groups {
			order = append(order, g[0])
			if len(g) > 1 {
				live = append(live, g[1:])
			}
		}
		groups = live
	}
	return order
}

// Solve executes one cell against the given cache — the single-workload
// entry point of the mapping service's /v1/map handler. It resolves the
// family base through AnalysisCache.GetSingle, so a family no request has
// asked for before waits in the cache's probation window and is admitted
// only when asked for again; campaign runs (Run) admit on first use.
//
// Solve borrows its arena from the package scratch pool; it is the engine's
// only caller that does (Run's cells solve on their executor worker's arena).
func Solve(cell Cell, cache *AnalysisCache) CellResult {
	sc := core.GetScratch()
	defer core.PutScratch(sc)
	return solveCellScratch(0, cell, func(c Cell) (*spg.Analysis, error) {
		return cache.GetSingle(c.Spec.CacheKey, c.Spec.Workload.Build)
	}, sc)
}

// solveCellScratch solves one cell with the caller-owned arena sc; the caller
// resets sc afterwards (nothing arena-backed survives in the CellResult —
// outcomes carry scalars and wire-form copies only).
func solveCellScratch(i int, cell Cell, resolve func(Cell) (*spg.Analysis, error), sc *core.Scratch) CellResult {
	r := CellResult{Index: i, Key: cell.Spec.Key}
	base, err := resolve(cell)
	if err != nil {
		r.Err = err
		return r
	}
	pl := platform.XScale(cell.Spec.P, cell.Spec.Q)
	r.Result, r.Feasible = selectPeriodDivisionsScratch(cell.Spec.member(base), pl, cell.Spec.Opts, cell.Spec.maxDivisions(), sc)
	return r
}

// newResolver chooses how cells obtain their family-base analyses. With an
// enabled campaign cache every cell consults it. Otherwise the campaign
// layer is off, but cells of one run that share a CacheKey still share the
// base — the pre-engine loops built each application's base once and derived
// the CCR variants from it, and the engine preserves that resource shape —
// through a private cache holding only the keys used by more than one cell
// (uniquely-keyed workloads, e.g. random-SPG cells, build directly and are
// not retained).
func newResolver(cells []Cell, cache *AnalysisCache) func(Cell) (*spg.Analysis, error) {
	if cache.enabled() {
		return func(c Cell) (*spg.Analysis, error) {
			return cache.Get(c.Spec.CacheKey, c.Spec.Workload.Build)
		}
	}
	counts := make(map[string]int)
	for _, c := range cells {
		if c.Spec.CacheKey != "" {
			counts[c.Spec.CacheKey]++
		}
	}
	shared := 0
	for _, n := range counts {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		return func(c Cell) (*spg.Analysis, error) { return c.Spec.Workload.Build() }
	}
	run := NewAnalysisCache(shared)
	return func(c Cell) (*spg.Analysis, error) {
		if counts[c.Spec.CacheKey] > 1 {
			return run.Get(c.Spec.CacheKey, c.Spec.Workload.Build)
		}
		return c.Spec.Workload.Build()
	}
}
