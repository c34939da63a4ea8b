// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), at a scale suitable for `go test -bench`. The full-scale
// campaigns are produced by cmd/experiments; these benchmarks exercise the
// identical code paths (workload synthesis, period protocol, all five
// heuristics, aggregation) with reduced instance counts, plus
// per-heuristic micro-benchmarks on representative workloads.
package spgcmp_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/exact"
	"spgcmp/internal/experiments"
	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/sim"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// benchApps is the reduced StreamIt subset used by the figure benchmarks:
// one low-elevation pipeline (DCT), one long chain-like graph (DES) and one
// fat graph (FMRadio), covering the three regimes of Section 6.2.1.
func benchApps(b *testing.B) []streamit.App {
	b.Helper()
	var apps []streamit.App
	for _, a := range streamit.Suite() {
		switch a.Name {
		case "DCT", "DES", "FMRadio":
			apps = append(apps, a)
		}
	}
	return apps
}

// BenchmarkTable1StreamItSuite regenerates Table 1: synthesize all 12
// workflows and verify their characteristics.
func BenchmarkTable1StreamItSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, a := range streamit.Suite() {
			g, err := a.Graph()
			if err != nil {
				b.Fatal(err)
			}
			if g.N() != a.N || g.Elevation() != a.YMax || g.Depth() != a.XMax {
				b.Fatalf("%s: characteristics drifted", a.Name)
			}
		}
	}
}

// BenchmarkFigure8StreamIt4x4 regenerates the Figure 8 campaign (normalized
// energies over CCR variants) on the reduced suite, 4x4 grid.
func BenchmarkFigure8StreamIt4x4(b *testing.B) {
	apps := benchApps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunStreamIt(4, 4, apps, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9StreamIt6x6 regenerates the Figure 9 campaign on 6x6.
func BenchmarkFigure9StreamIt6x6(b *testing.B) {
	apps := benchApps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunStreamIt(6, 6, apps, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2StreamItFailures regenerates Table 2 (failure counts per
// heuristic on both grids) from the reduced campaigns.
func BenchmarkTable2StreamItFailures(b *testing.B) {
	apps := benchApps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r4, err := experiments.RunStreamIt(4, 4, apps, 1)
		if err != nil {
			b.Fatal(err)
		}
		r6, err := experiments.RunStreamIt(6, 6, apps, 1)
		if err != nil {
			b.Fatal(err)
		}
		_ = r4.FailureCounts()
		_ = r6.FailureCounts()
	}
}

func benchRandom(b *testing.B, n, p, q, maxElev int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, ccr := range []float64{10, 1, 0.1} {
			_, err := experiments.RunRandom(experiments.RandomConfig{
				N: n, P: p, Q: q, CCR: ccr,
				MinElevation: 1, MaxElevation: maxElev, GraphsPerElev: 2, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure10Random50_4x4 regenerates the Figure 10 panels (n=50
// random SPGs on 4x4, CCR 10/1/0.1) over a reduced elevation sweep.
func BenchmarkFigure10Random50_4x4(b *testing.B) { benchRandom(b, 50, 4, 4, 8) }

// BenchmarkFigure11Random50_6x6 regenerates Figure 11 (n=50 on 6x6).
func BenchmarkFigure11Random50_6x6(b *testing.B) { benchRandom(b, 50, 6, 6, 8) }

// BenchmarkFigure12Random150_4x4 regenerates Figure 12 (n=150 on 4x4).
func BenchmarkFigure12Random150_4x4(b *testing.B) { benchRandom(b, 150, 4, 4, 10) }

// BenchmarkDPA1DRandom150Slice is a CI-sized slice of Figure 12 that the
// DPA1D expansion kernel dominates: one n=150, elevation-8 random SPG on 4x4
// at each of the panel's three CCRs, solved through the full period
// protocol on a fresh analysis cache every op, so each op enumerates its
// downset lattices from scratch.
func BenchmarkDPA1DRandom150Slice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cache := experiments.NewAnalysisCache(4)
		for _, ccr := range []float64{10, 1, 0.1} {
			_, err := experiments.RunRandom(experiments.RandomConfig{
				N: 150, P: 4, Q: 4, CCR: ccr,
				MinElevation: 8, MaxElevation: 8, GraphsPerElev: 1, Seed: 1,
				Cache: cache,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure13Random150_6x6 regenerates Figure 13 (n=150 on 6x6).
func BenchmarkFigure13Random150_6x6(b *testing.B) { benchRandom(b, 150, 6, 6, 10) }

// BenchmarkTable3RandomFailures regenerates Table 3 (failure counts per CCR
// for n=50 on 4x4) from a reduced campaign.
func BenchmarkTable3RandomFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ccr := range []float64{10, 1, 0.1} {
			res, err := experiments.RunRandom(experiments.RandomConfig{
				N: 50, P: 4, Q: 4, CCR: ccr,
				MinElevation: 1, MaxElevation: 8, GraphsPerElev: 2, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = res.TotalFailures()
		}
	}
}

// --- Campaign-scale solver reuse: the three cache layers together ---

// BenchmarkCampaign measures the steady-state cost of answering the full
// Figure 8 campaign — all 12 StreamIt applications, all 4 CCR variants, the
// complete period-selection protocol, all five heuristics — through the
// three reuse layers: per-instance analyses, scale-family sharing across the
// CCR variants, and a warm campaign cache (one warming sweep runs before the
// timer starts, modelling the long-running mapping-service pattern the
// campaign cache exists for).
func BenchmarkCampaign(b *testing.B) {
	cache := experiments.NewAnalysisCache(64)
	if _, err := experiments.RunStreamItWith(4, 4, nil, 1, cache); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunStreamItWith(4, 4, nil, 1, cache); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectPeriodSweep measures one application's CCR sweep — the
// Section 6.1 pattern of solving the same workload at every CCR variant —
// with the variants derived as scale-family members of one base analysis:
// reachability, band shapes, convexity verdicts, the downset lattice and the
// cross-period speed thresholds are built once for the whole sweep.
func BenchmarkSelectPeriodSweep(b *testing.B) {
	a, err := streamit.ByName("DES")
	if err != nil {
		b.Fatal(err)
	}
	pl := platform.XScale(4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseG, err := a.BaseGraph()
		if err != nil {
			b.Fatal(err)
		}
		base := spg.NewAnalysis(baseG)
		for ci, ccr := range []float64{a.CCR, 10, 1, 0.1} {
			an := base.ScaleToCCR(ccr)
			experiments.SelectPeriod(an, pl, int64(1+ci))
		}
	}
}

// --- Period-selection protocol ---

// selectPeriodWorkload is the workload the SelectPeriod benchmarks run: DES
// at CCR 1 with stage weights and volumes scaled down 100x — a fine-grained
// variant whose stages fit sub-10ms periods, so the protocol performs ~5
// divisions instead of 1-2. More divisions is exactly where the shared
// analysis cache compounds: every structure built at the first period is
// reused at each subsequent one.
func selectPeriodWorkload(b *testing.B) *spg.Graph {
	b.Helper()
	a, err := streamit.ByName("DES")
	if err != nil {
		b.Fatal(err)
	}
	g, err := a.GraphWithCCR(1)
	if err != nil {
		b.Fatal(err)
	}
	fine := g.Clone()
	for i := range fine.Stages {
		fine.Stages[i].Weight /= 100
	}
	for i := range fine.Edges {
		fine.Edges[i].Volume /= 100
	}
	return fine
}

// BenchmarkSelectPeriod measures the Section 6.1.3 protocol as shipped: one
// analysis cache per workload, shared across all heuristics and all period
// divisions.
func BenchmarkSelectPeriod(b *testing.B) {
	g := selectPeriodWorkload(b)
	pl := platform.XScale(4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.SelectPeriod(spg.NewAnalysis(g), pl, 1)
	}
}

// BenchmarkSelectPeriodRandomMiss times the /v1/map miss path's solve: each
// op is one never-seen random SPG of the map-mixed shape (n=20, elevation 3,
// CCR 1) on 4x4, built into a fresh analysis and run through the period
// protocol with placements kept, as engine.Solve does for the service.
func BenchmarkSelectPeriodRandomMiss(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := experiments.NewRandomCell(20, 3, int64(i), 1, 4, 4)
		c.Spec.Opts.KeepMappings = true
		if r := engine.Solve(c, nil); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// BenchmarkSelectPeriodBudgetFamily times the period protocol on a family
// whose DPA1D explodes: each op runs FMRadio's four CCR cells on 4x4 through
// a serial pool on a fresh campaign cache. The capacity certificate answers
// the first all-fail division, T = 0.1 s, without a run; the returned
// period's DPA1D runs out of states in layer 1, and the siblings replay that
// verdict instead of running again.
func BenchmarkSelectPeriodBudgetFamily(b *testing.B) {
	app, err := streamit.ByName("FMRadio")
	if err != nil {
		b.Fatal(err)
	}
	apps := []streamit.App{app}
	for i := 0; i < b.N; i++ {
		results, err := engine.Run(context.Background(), &engine.PoolExecutor{Workers: 1}, engine.Campaign{
			Cells: experiments.StreamItCells(4, 4, apps, 1),
			Cache: experiments.NewAnalysisCache(4),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.ReduceStreamIt(4, 4, apps, results); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-structure micro-benchmarks: fresh build vs cached reuse ---

func analysisBenchGraph(b *testing.B) *spg.Graph {
	b.Helper()
	a, err := streamit.ByName("FMRadio")
	if err != nil {
		b.Fatal(err)
	}
	g, err := a.GraphWithCCR(1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkAnalysisValidateFresh(b *testing.B) {
	g := analysisBenchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalysisValidateCached(b *testing.B) {
	an := spg.NewAnalysis(analysisBenchGraph(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := an.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalysisReachabilityFresh(b *testing.B) {
	g := analysisBenchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = spg.NewReachability(g)
	}
}

func BenchmarkAnalysisReachabilityCached(b *testing.B) {
	an := spg.NewAnalysis(analysisBenchGraph(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = an.Reachability()
	}
}

// BenchmarkDownsetExpansionsFresh builds the full downset space of a 30-stage
// chain from scratch every iteration; ...Warmed re-enumerates on a shared
// space (one run per iteration), the DPA1D-across-periods pattern.
func BenchmarkDownsetExpansionsFresh(b *testing.B) {
	inst := chainInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := spg.NewAnalysis(inst.Graph).DownsetSpace(150_000)
		if err != nil {
			b.Fatal(err)
		}
		if err := expandEmptyDownset(ds, inst.Period*inst.Platform.MaxSpeed()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDownsetExpansionsWarmed(b *testing.B) {
	inst := chainInstance(b)
	ds, err := spg.NewAnalysis(inst.Graph).DownsetSpace(150_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := expandEmptyDownset(ds, inst.Period*inst.Platform.MaxSpeed()); err != nil {
			b.Fatal(err)
		}
	}
}

// expandEmptyDownset opens a run on ds and expands the empty downset (run
// index 0) at maxWork, as DPA1D's first layer does.
func expandEmptyDownset(ds *spg.DownsetSpace, maxWork float64) error {
	run := ds.NewRun()
	defer run.Close()
	_, _, err := run.Expand(0, maxWork, func(n int) ([]int32, []float64) {
		return make([]int32, n), make([]float64, n)
	})
	return err
}

// --- Per-heuristic micro-benchmarks on representative instances ---

func benchHeuristic(b *testing.B, h core.Heuristic, inst core.Instance) {
	b.Helper()
	// Ensure the instance is solvable before timing (or expectedly not).
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = h.Solve(inst)
	}
}

func fmRadioInstance(b *testing.B) core.Instance {
	b.Helper()
	a, err := streamit.ByName("FMRadio")
	if err != nil {
		b.Fatal(err)
	}
	g, err := a.GraphWithCCR(1)
	if err != nil {
		b.Fatal(err)
	}
	return core.Instance{Graph: g, Platform: platform.XScale(4, 4), Period: 1}
}

func chainInstance(b *testing.B) core.Instance {
	b.Helper()
	g, err := randspg.Generate(randspg.Params{N: 30, Elevation: 1, Seed: 4, CCR: 10})
	if err != nil {
		b.Fatal(err)
	}
	return core.Instance{Graph: g, Platform: platform.XScale(4, 4), Period: 0.2}
}

func BenchmarkHeuristicRandomFMRadio(b *testing.B) {
	benchHeuristic(b, core.NewRandom(1), fmRadioInstance(b))
}

func BenchmarkHeuristicGreedyFMRadio(b *testing.B) {
	benchHeuristic(b, core.NewGreedy(), fmRadioInstance(b))
}

func BenchmarkHeuristicDPA2DFMRadio(b *testing.B) {
	benchHeuristic(b, core.NewDPA2D(), fmRadioInstance(b))
}

func BenchmarkHeuristicDPA2D1DFMRadio(b *testing.B) {
	benchHeuristic(b, core.NewDPA2D1D(), fmRadioInstance(b))
}

func BenchmarkHeuristicDPA1DChain30(b *testing.B) {
	benchHeuristic(b, core.NewDPA1D(), chainInstance(b))
}

// The ...Shared variants attach one analysis cache outside the loop, so each
// iteration reuses the precomputed graph structures (bands, the downset
// space) and times the DP itself — the per-heuristic view of what the
// shared analysis saves SelectPeriod.
func BenchmarkHeuristicDPA2DFMRadioShared(b *testing.B) {
	benchHeuristic(b, core.NewDPA2D(), fmRadioInstance(b).Analyzed())
}

func BenchmarkHeuristicDPA1DChain30Shared(b *testing.B) {
	benchHeuristic(b, core.NewDPA1D(), chainInstance(b).Analyzed())
}

func BenchmarkHeuristicDPA2D1DChain30(b *testing.B) {
	benchHeuristic(b, core.NewDPA2D1D(), chainInstance(b))
}

// --- Single-cell kernel benchmarks (flattened DP kernels) ---

// benchCellKernel times one heuristic in a pool worker's steady state: warm
// analysis (bands and the downset space built) and a worker-owned scratch
// arena reset between solves. This isolates the DP kernels themselves — the
// target of the bitset-downset / run-indexed-table / arena flattening — from
// workload synthesis and cache warm-up; every case, DPA1D's included, runs
// its whole DP each iteration.
func benchCellKernel(b *testing.B, h core.Heuristic, inst core.Instance) {
	b.Helper()
	inst = inst.Analyzed()
	inst.Scratch = core.NewScratch()
	if _, err := h.Solve(inst); err != nil {
		b.Fatal(err)
	}
	inst.Scratch.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = h.Solve(inst)
		inst.Scratch.Reset()
	}
}

func BenchmarkCellKernel(b *testing.B) {
	cases := []struct {
		name string
		h    core.Heuristic
		inst func(*testing.B) core.Instance
	}{
		{"DPA2D/FMRadio", core.NewDPA2D(), fmRadioInstance},
		{"DPA2D1D/FMRadio", core.NewDPA2D1D(), fmRadioInstance},
		{"Greedy/FMRadio", core.NewGreedy(), fmRadioInstance},
		{"Random/FMRadio", core.NewRandom(1), fmRadioInstance},
		{"DPA1D/Chain30", core.NewDPA1D(), chainInstance},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchCellKernel(b, c.h, c.inst(b)) })
	}
}

// --- Ablation benchmarks for the design choices called out in DESIGN.md ---

// BenchmarkAblationRefinement measures the local-search post-pass
// (an extension beyond the paper) applied to every heuristic's output.
func BenchmarkAblationRefinement(b *testing.B) {
	g, err := randspg.Generate(randspg.Params{N: 30, Elevation: 5, Seed: 2, CCR: 1})
	if err != nil {
		b.Fatal(err)
	}
	inst := core.Instance{Graph: g, Platform: platform.XScale(4, 4), Period: 0.2}
	sol, err := core.NewGreedy().Solve(inst)
	if err != nil {
		b.Fatal(err)
	}
	ref := core.NewRefiner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ref.Refine(inst, sol)
	}
}

// BenchmarkAblationRandomTrials1 and ...Trials10 quantify the cost of the
// paper's "ten calls, keep the best" rule for the Random baseline.
func BenchmarkAblationRandomTrials1(b *testing.B) {
	benchHeuristic(b, &core.Random{Trials: 1, Seed: 1}, fmRadioInstance(b))
}

func BenchmarkAblationRandomTrials10(b *testing.B) {
	benchHeuristic(b, &core.Random{Trials: 10, Seed: 1}, fmRadioInstance(b))
}

// BenchmarkAblationExactDAGPartition and ...ExactGeneral compare the
// exact search with and without the DAG-partition rule (the paper's
// future-work question) on a tiny instance.
func BenchmarkAblationExactDAGPartition(b *testing.B) {
	g, err := randspg.Generate(randspg.Params{N: 7, Elevation: 2, Seed: 1, CCR: 10})
	if err != nil {
		b.Fatal(err)
	}
	inst := core.Instance{Graph: g, Platform: platform.XScale(2, 2), Period: 0.3}
	s := exact.NewSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Solve(inst)
	}
}

func BenchmarkAblationExactGeneral(b *testing.B) {
	g, err := randspg.Generate(randspg.Params{N: 7, Elevation: 2, Seed: 1, CCR: 10})
	if err != nil {
		b.Fatal(err)
	}
	inst := core.Instance{Graph: g, Platform: platform.XScale(2, 2), Period: 0.3}
	s := exact.NewSolver()
	s.General = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Solve(inst)
	}
}

// BenchmarkSimulator measures the pipeline simulator on a mapped StreamIt
// workflow (512 data sets).
func BenchmarkSimulator(b *testing.B) {
	inst := fmRadioInstance(b)
	sol, err := core.NewDPA2D().Solve(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(inst.Graph, inst.Platform, sol.Mapping, inst.Period,
			sim.Options{DataSets: 512, Saturated: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkILPEmission measures generation of the Section 4.4 program.
func BenchmarkILPEmission(b *testing.B) {
	g, err := randspg.Generate(randspg.Params{N: 8, Elevation: 2, Seed: 1, CCR: 10})
	if err != nil {
		b.Fatal(err)
	}
	inst := core.Instance{Graph: g, Platform: platform.XScale(2, 2), Period: 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.WriteILP(devnull{}, inst); err != nil {
			b.Fatal(err)
		}
	}
}

type devnull struct{}

func (devnull) Write(p []byte) (int, error) { return len(p), nil }

// --- Campaign engine: cells through the pool executor and the dispatcher ---

// benchEngineCache returns a campaign cache pre-warmed with one full pass of
// the reduced suite, modelling the steady state of a long-running service.
func benchEngineCache(b *testing.B, apps []streamit.App) *engine.AnalysisCache {
	b.Helper()
	cache := experiments.NewAnalysisCache(64)
	if _, err := experiments.RunStreamItWith(4, 4, apps, 1, cache); err != nil {
		b.Fatal(err)
	}
	return cache
}

// BenchmarkEngineCampaign measures a warm StreamIt campaign through the
// engine path: cell enumeration, the pool executor, and the indexed
// order-independent reducer.
func BenchmarkEngineCampaign(b *testing.B) {
	apps := benchApps(b)
	cache := benchEngineCache(b, apps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := engine.Run(context.Background(), nil, engine.Campaign{
			Cells: experiments.StreamItCells(4, 4, apps, 1),
			Cache: cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.ReduceStreamIt(4, 4, apps, results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatcherSteal measures the cluster scheduler on a
// heterogeneous cluster: two in-process workers (httptest servers sharing
// the warm campaign cache), one artificially slow (a per-cell stall
// modelling an overloaded host). The fast worker pulls, and steals, most
// one-cell chunks, so the campaign should finish near the fast worker's
// pace; BenchmarkEngineCampaign runs the same campaign on the in-process
// pool. Results are bit-identical by the dispatcher equivalence suite.
func BenchmarkDispatcherSteal(b *testing.B) {
	apps := benchApps(b)
	cache := benchEngineCache(b, apps)
	const perCell = 15 * time.Millisecond
	worker := func(stall bool) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req engine.ExecuteCellsRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if stall {
				select {
				case <-time.After(time.Duration(len(req.Cells)) * perCell):
				case <-r.Context().Done():
					return
				}
			}
			results, err := engine.ExecuteSpecs(r.Context(), nil, req.Cells, cache, nil)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			_ = json.NewEncoder(w).Encode(engine.ExecuteCellsResponse{Results: results})
		}))
	}
	slow, fast := worker(true), worker(false)
	defer slow.Close()
	defer fast.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := &engine.Dispatcher{
			Registry:   engine.NewWorkerRegistry(0, slow.URL, fast.URL),
			ChunkCells: 1,
		}
		results, err := engine.Run(context.Background(), nil, engine.Campaign{
			Cells:      experiments.StreamItCells(4, 4, apps, 1),
			Cache:      cache,
			Dispatcher: d,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.ReduceStreamIt(4, 4, apps, results); err != nil {
			b.Fatal(err)
		}
		if st := d.Stats(); st.LocalFallbacks > 0 {
			b.Fatalf("%d chunks fell back locally", st.LocalFallbacks)
		}
	}
}
