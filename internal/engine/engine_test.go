package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// testCells builds a small StreamIt-backed campaign without importing the
// experiments adapters (which sit above this package): two applications,
// two CCR variants each, on a 2x2 grid. The cells are purely declarative
// (wire-codable specs rebuilt by WorkloadSpec.Build), so dispatcher tests can
// reuse them.
func testCells(t *testing.T) []Cell {
	t.Helper()
	var cells []Cell
	for _, name := range []string{"DCT", "FFT"} {
		a, err := streamit.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ccr := range []float64{a.CCR, 1} {
			cells = append(cells, CellSpec{
				Key:      fmt.Sprintf("%s/ccr=%g", a.Name, ccr),
				CacheKey: "streamit/" + a.Name,
				Workload: WorkloadSpec{StreamIt: a.Name},
				ScaleCCR: true,
				CCR:      ccr,
				P:        2,
				Q:        2,
				Opts:     core.Options{Seed: 40 + int64(len(cells)), DPA1DMaxStates: 60_000},
			}.Cell())
		}
	}
	return cells
}

func requireSameResults(t *testing.T, label string, got, want []CellResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Feasible != w.Feasible || g.Index != w.Index {
			t.Fatalf("%s[%d]: identity (%s,%v,%d) vs (%s,%v,%d)",
				label, i, g.Key, g.Feasible, g.Index, w.Key, w.Feasible, w.Index)
		}
		if math.Float64bits(g.Result.Period) != math.Float64bits(w.Result.Period) {
			t.Errorf("%s[%s]: period %g != %g", label, g.Key, g.Result.Period, w.Result.Period)
		}
		for j, o := range g.Result.Outcomes {
			wo := w.Result.Outcomes[j]
			if o.Heuristic != wo.Heuristic || o.OK != wo.OK || o.ActiveCores != wo.ActiveCores ||
				(o.OK && math.Float64bits(o.Energy) != math.Float64bits(wo.Energy)) {
				t.Errorf("%s[%s] %s: outcome %+v != %+v", label, g.Key, o.Heuristic, o, wo)
			}
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts: the same campaign must yield
// bit-identical indexed results at every worker count, with and without a
// warm campaign cache — the engine half of the acceptance bar.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	cells := testCells(t)
	want, err := Run(context.Background(), &PoolExecutor{Workers: 1}, Campaign{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := Run(context.Background(), &PoolExecutor{Workers: workers}, Campaign{Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("workers=%d", workers), got, want)
	}

	cache := NewAnalysisCache(8)
	for _, pass := range []string{"cold", "warm"} {
		for _, workers := range []int{1, 4} {
			got, err := Run(context.Background(), &PoolExecutor{Workers: workers}, Campaign{Cells: cells, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, fmt.Sprintf("%s-cache/workers=%d", pass, workers), got, want)
		}
	}
}

// TestRunSharesFamilyBasesWithoutCache: with the campaign layer disabled,
// cells sharing a CacheKey must still resolve one base per family within the
// run (the legacy loops' intrinsic sharing), while uniquely-keyed cells are
// built directly.
func TestRunSharesFamilyBasesWithoutCache(t *testing.T) {
	mk := func(key, cell string) Cell {
		return CellSpec{
			Key:      key + "/" + cell,
			CacheKey: key,
			Workload: WorkloadSpec{StreamIt: "DCT"},
			P:        2, Q: 2,
		}.Cell()
	}
	cells := []Cell{mk("fam", "cell1"), mk("fam", "cell2"), mk("solo", "cell1")}
	resolve := newResolver(cells, nil)
	an := make([]*spg.Analysis, len(cells))
	for i, c := range cells {
		var err error
		if an[i], err = resolve(c); err != nil {
			t.Fatal(err)
		}
	}
	if an[0] != an[1] {
		t.Error("the two family cells resolved distinct analyses, want one shared base")
	}
	if an[2] == an[0] {
		t.Error("the uniquely-keyed cell reused the family base, want a fresh build")
	}
	if again, err := resolve(cells[2]); err != nil || again == an[2] {
		t.Errorf("the uniquely-keyed cell was retained (err %v), want a fresh build per resolve", err)
	}
}

// TestRunBuildErrors: a failing workload build surfaces as the cell's Err
// without aborting sibling cells.
func TestRunBuildErrors(t *testing.T) {
	// Elevation 30 on 8 stages is unsatisfiable: generation fails.
	bad := CellSpec{Key: "bad", Workload: WorkloadSpec{Random: &RandomWorkload{N: 8, Elevation: 30, Seed: 3}}, P: 2, Q: 2}
	cells := []Cell{bad.Cell(), testCells(t)[0]}
	results, err := Run(context.Background(), &PoolExecutor{Workers: 2}, Campaign{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	if _, want := bad.Workload.Build(); want == nil || results[0].Err == nil || results[0].Err.Error() != want.Error() {
		t.Errorf("bad cell error = %v, want %v", results[0].Err, want)
	}
	if results[1].Err != nil || !results[1].Feasible {
		t.Errorf("sibling cell was disturbed: %+v", results[1])
	}
}

// TestPoolExecutorContract: every index runs exactly once at any worker
// count; a cancelled context stops scheduling and surfaces the error.
func TestPoolExecutorContract(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 100
		var counts [n]atomic.Int64
		ex := &PoolExecutor{Workers: workers}
		if err := ex.ExecuteScratch(context.Background(), n, func(i int, _ *core.Scratch) { counts[i].Add(1) }); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	var once sync.Once
	ex := &PoolExecutor{Workers: 2}
	err := ex.ExecuteScratch(ctx, 10_000, func(i int, _ *core.Scratch) {
		ran.Add(1)
		once.Do(cancel)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ExecuteScratch returned %v", err)
	}
	if got := ran.Load(); got == 0 || got == 10_000 {
		t.Errorf("cancellation ran %d cells, want some but not all", got)
	}

	// A context cancelled before the call starts nothing at any worker
	// count, even though idle workers are ready to take an index.
	for _, workers := range []int{1, 3} {
		var started atomic.Int64
		err := (&PoolExecutor{Workers: workers}).ExecuteScratch(ctx, 1000, func(int, *core.Scratch) { started.Add(1) })
		if !errors.Is(err, context.Canceled) || started.Load() != 0 {
			t.Errorf("workers=%d: pre-cancelled run started %d cells, returned %v", workers, started.Load(), err)
		}
	}
}

// TestOnCellObservesEveryResult: the progress hook sees each completed cell
// exactly once.
func TestOnCellObservesEveryResult(t *testing.T) {
	cells := testCells(t)
	var mu sync.Mutex
	seen := make(map[string]int)
	_, err := Run(context.Background(), &PoolExecutor{Workers: 3}, Campaign{
		Cells: cells,
		OnCell: func(r CellResult) {
			mu.Lock()
			seen[r.Key]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cells) {
		t.Fatalf("OnCell saw %d distinct cells, want %d", len(seen), len(cells))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("cell %s observed %d times", k, n)
		}
	}
}

// TestAnalysisCacheByteBound: with a byte bound configured, completed
// entries are evicted LRU-first until the footprint estimate fits, and the
// stats expose the tracked account.
func TestAnalysisCacheByteBound(t *testing.T) {
	build := func(n int) func() (*spg.Analysis, error) {
		return func() (*spg.Analysis, error) {
			weights := make([]float64, n)
			vols := make([]float64, n-1)
			for i := range weights {
				weights[i] = 0.01
			}
			g, err := spg.Chain(weights, vols)
			if err != nil {
				return nil, err
			}
			an := spg.NewAnalysis(g)
			an.Reachability() // force some footprint beyond the graph
			return an, nil
		}
	}
	probe, err := build(64)()
	if err != nil {
		t.Fatal(err)
	}
	one := probe.MemoryFootprint()
	if one <= 0 {
		t.Fatalf("footprint of a built analysis = %d", one)
	}

	// Room for about two entries: inserting a third must evict the LRU one.
	c := NewAnalysisCacheBytes(0, one*2+one/2)
	for _, key := range []string{"a", "b", "c"} {
		if _, err := c.Get(key, build(64)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("byte-bounded cache holds %d entries, want 2", got)
	}
	if _, err := c.Get("a", func() (*spg.Analysis, error) {
		return spg.NewAnalysis(nil), nil
	}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Bytes <= 0 || st.Bytes > 3*one {
		t.Errorf("tracked bytes %d implausible for bound %d", st.Bytes, one*2+one/2)
	}
	if st.Misses < 3 {
		t.Errorf("misses = %d, want >= 3", st.Misses)
	}

	// An entry-only cache still reports estimated bytes in Stats.
	ec := NewAnalysisCache(4)
	if _, err := ec.Get("k", build(32)); err != nil {
		t.Fatal(err)
	}
	if st := ec.Stats(); st.Bytes <= 0 || st.Hits != 0 || st.Misses != 1 {
		t.Errorf("entry-bound stats = %+v", st)
	}
}

// TestSolveMatchesRun: the single-cell entry point used by /v1/map answers
// bit-identically to the same cell inside a campaign.
func TestSolveMatchesRun(t *testing.T) {
	cells := testCells(t)[:1]
	want, err := Run(context.Background(), nil, Campaign{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	got := Solve(cells[0], NewAnalysisCache(4))
	requireSameResults(t, "solve-vs-run", []CellResult{got}, want)
}
