package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/experiments"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// eagerSelectPeriod is the reference protocol: every heuristic of
// core.AllWith solved at every period division, in the paper's order. The
// engine's protocol solves intermediate divisions only up to their first
// success, skips the periods core.CapacityInfeasible certifies, and must
// return exactly what this loop returns. The loop also reports the
// periods it solved that the certificate covers, and fails t if a
// heuristic succeeded at one of them.
func eagerSelectPeriod(t *testing.T, an *spg.Analysis, pl *platform.Platform, opts core.Options, maxDivisions int) (ir engine.InstanceResult, ok bool, certified []float64) {
	if maxDivisions <= 0 {
		maxDivisions = engine.DefaultMaxDivisions
	}
	solve := func(inst core.Instance) []core.CellOutcome {
		out := solveEveryHeuristic(inst, opts)
		if core.CapacityInfeasible(inst) {
			certified = append(certified, inst.Period)
			if core.AnyOK(out) {
				t.Errorf("the capacity certificate holds at T = %g, where a heuristic succeeds: %+v", inst.Period, out)
			}
		}
		return out
	}
	inst := core.Instance{Graph: an.Graph(), Platform: pl, Period: 1.0, Analysis: an}
	outcomes := solve(inst)
	if !core.AnyOK(outcomes) {
		return engine.InstanceResult{Period: inst.Period, Outcomes: outcomes}, false, certified
	}
	for i := 0; i < maxDivisions; i++ {
		tighter := inst.WithPeriod(inst.Period / 10)
		next := solve(tighter)
		if !core.AnyOK(next) {
			break
		}
		inst, outcomes = tighter, next
	}
	return engine.InstanceResult{Period: inst.Period, Outcomes: outcomes}, true, certified
}

func solveEveryHeuristic(inst core.Instance, o core.Options) []core.CellOutcome {
	hs := core.AllWith(o)
	out := make([]core.CellOutcome, len(hs))
	for i, h := range hs {
		out[i].Heuristic = h.Name()
		sol, err := h.Solve(inst)
		if err != nil {
			continue
		}
		out[i].OK = true
		out[i].Energy = sol.Energy()
		out[i].ActiveCores = sol.Result.ActiveCores
		if o.KeepMappings {
			out[i].Mapping = sol.Mapping.Wire(inst.Platform)
		}
	}
	return out
}

// sameResult fails t unless got equals want bit for bit: feasibility, the
// period and every energy compared by Float64bits, and the JSON bytes
// (placements included when the options keep them).
func sameResult(t *testing.T, label string, got engine.InstanceResult, gotOK bool, want engine.InstanceResult, wantOK bool) {
	t.Helper()
	if gotOK != wantOK || math.Float64bits(got.Period) != math.Float64bits(want.Period) || len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("%s: got ok=%v period=%g with %d outcomes, want ok=%v period=%g with %d",
			label, gotOK, got.Period, len(got.Outcomes), wantOK, want.Period, len(want.Outcomes))
	}
	for i, g := range got.Outcomes {
		w := want.Outcomes[i]
		if g.Heuristic != w.Heuristic || g.OK != w.OK || math.Float64bits(g.Energy) != math.Float64bits(w.Energy) || g.ActiveCores != w.ActiveCores {
			t.Fatalf("%s: outcome %d = %+v, want %+v", label, i, g, w)
		}
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: JSON differs:\n got %s\nwant %s", label, gb, wb)
	}
}

// freshAnalysis builds a cell's analysis with nothing shared.
func freshAnalysis(spec engine.CellSpec) (*spg.Analysis, error) {
	an, err := spec.Workload.Build()
	if err != nil {
		return nil, err
	}
	if spec.ScaleCCR {
		an = an.ScaleToCCR(spec.CCR)
	}
	return an, nil
}

// eagerCell is the reference result of one cell on a fresh analysis, with
// the periods of its descent the capacity certificate covers.
func eagerCell(t *testing.T, spec engine.CellSpec) (engine.InstanceResult, bool, []float64, error) {
	an, err := freshAnalysis(spec)
	if err != nil {
		return engine.InstanceResult{}, false, nil, err
	}
	ir, ok, certified := eagerSelectPeriod(t, an, platform.XScale(spec.P, spec.Q), spec.Opts, spec.MaxDivisions)
	return ir, ok, certified, nil
}

// explodingApps are the Table 1 applications whose DPA1D lattice exceeds
// the campaign's state budget. On 4x4 their total work exceeds the
// platform's capacity at T = 0.1 s, so the certificate answers that period
// and the protocol returns T = 1 s without running DPA1D at 0.1 s.
var explodingApps = map[string]bool{"Beamformer": true, "ChannelVocoder": true, "Filterbank": true, "FMRadio": true, "Vocoder": true}

// TestProtocolMatchesEagerStreamIt covers the 12 StreamIt applications at
// their four CCRs on 2x2, 4x4 and 6x6: each cell solved on a fresh analysis
// through the arena-threaded protocol, and every cell of the three grids run
// as campaigns over one shared cache, must equal the eager reference. On
// 4x4 the capacity certificate must cover T = 0.1 s of the exploding apps.
func TestProtocolMatchesEagerStreamIt(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 144 StreamIt cells three times")
	}
	cache := experiments.NewAnalysisCache(512)
	for _, grid := range [][2]int{{2, 2}, {4, 4}, {6, 6}} {
		cells := experiments.StreamItCells(grid[0], grid[1], nil, 1)
		for i := range cells {
			cells[i].Spec.Opts.KeepMappings = true
		}
		shared, err := engine.Run(context.Background(), &engine.PoolExecutor{Workers: 2}, engine.Campaign{Cells: cells, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		// The fresh-analysis solves share nothing, so two workers run them.
		type pair struct {
			want, got     engine.InstanceResult
			wantOK, gotOK bool
			certified     []float64
			err           error
		}
		fresh := make([]pair, len(cells))
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := core.NewScratch()
				for i := range next {
					spec := cells[i].Spec
					r := &fresh[i]
					an, err := freshAnalysis(spec)
					if err == nil {
						r.want, r.wantOK, r.certified, err = eagerCell(t, spec)
					}
					if r.err = err; err != nil {
						continue
					}
					r.got, r.gotOK = engine.SelectPeriodDivisionsScratch(an, platform.XScale(spec.P, spec.Q), spec.Opts, spec.MaxDivisions, sc)
					sc.Reset()
				}
			}()
		}
		for i := range cells {
			next <- i
		}
		close(next)
		wg.Wait()
		for i, c := range cells {
			r := fresh[i]
			if r.err != nil {
				t.Fatalf("%s: %v", c.Spec.Key, r.err)
			}
			sameResult(t, c.Spec.Key+" fresh", r.got, r.gotOK, r.want, r.wantOK)
			if shared[i].Err != nil {
				t.Fatalf("%s: %v", c.Spec.Key, shared[i].Err)
			}
			sameResult(t, c.Spec.Key+" shared cache", shared[i].Result, shared[i].Feasible, r.want, r.wantOK)
			if grid == [2]int{4, 4} && explodingApps[c.Spec.Workload.StreamIt] && !slices.Contains(r.certified, 0.1) {
				t.Errorf("%s: the capacity certificate does not cover T = 0.1 s (covers %v)", c.Spec.Key, r.certified)
			}
		}
	}
}

// TestProtocolMatchesEagerRandom covers /v1/map misses: 200 never-seen
// random SPGs of the map-mixed shape (n=20, elevation 3, CCR 1, 4x4,
// placements kept) through engine.Solve, plus every elevation from 1 to 8.
// On every map-shape cell the protocol returns T = 0.1 s for, the capacity
// certificate must answer T = 0.01 s, so a miss runs no heuristic there.
func TestProtocolMatchesEagerRandom(t *testing.T) {
	var cells []engine.Cell
	for seed := int64(1); seed <= 200; seed++ {
		cells = append(cells, experiments.NewRandomCell(20, 3, seed, 1, 4, 4))
	}
	for elev := 1; elev <= 8; elev++ {
		for seed := int64(1); seed <= 4; seed++ {
			cells = append(cells, experiments.NewRandomCell(20, elev, 1000+seed, 1, 4, 4))
		}
	}
	checked := 0
	for i, c := range cells {
		c.Spec.Opts.KeepMappings = true
		want, wantOK, certified, err := eagerCell(t, c.Spec)
		if err != nil {
			t.Fatal(err)
		}
		r := engine.Solve(c, nil)
		if r.Err != nil {
			t.Fatalf("%s: %v", c.Spec.Key, r.Err)
		}
		sameResult(t, c.Spec.Key, r.Result, r.Feasible, want, wantOK)
		if i < 200 && want.Period == 0.1 {
			if !slices.Contains(certified, 0.01) {
				t.Errorf("%s: the capacity certificate does not cover T = 0.01 s (covers %v)", c.Spec.Key, certified)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no map-shape cell returned T = 0.1 s; the certificate went untested")
	}
}

// TestProtocolMatchesEagerDivisions checks every cap from 1 to 9 divisions:
// on a graph the protocol stops dividing by itself, on one it never stops
// dividing (the cap always ends it, so the completed period is the last
// one solved) and on one infeasible at 1 s (all five heuristics fail at
// once and are returned as they are).
func TestProtocolMatchesEagerDivisions(t *testing.T) {
	never, err := spg.Chain([]float64{1e-12, 1e-12, 1e-12}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	infeasible, err := spg.Chain([]float64{2, 2}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	random, err := freshAnalysis(experiments.NewRandomCell(20, 3, 7, 1, 4, 4).Spec)
	if err != nil {
		t.Fatal(err)
	}
	// The same graph 10^4 times lighter stops dividing by itself only after
	// about five divisions, so the lower caps cut it short.
	fine := random.Graph().Clone()
	for i := range fine.Stages {
		fine.Stages[i].Weight /= 1e4
	}
	for i := range fine.Edges {
		fine.Edges[i].Volume /= 1e4
	}
	graphs := map[string]*spg.Graph{"never-failing": never, "infeasible": infeasible, "random": random.Graph(), "fine random": fine}
	opts := core.Options{Seed: 1, DPA1DMaxStates: 60_000, KeepMappings: true}
	pl := platform.XScale(4, 4)
	sc := core.NewScratch()
	for name, g := range graphs {
		for d := 1; d <= 9; d++ {
			want, wantOK, _ := eagerSelectPeriod(t, spg.NewAnalysis(g), pl, opts, d)
			got, gotOK := engine.SelectPeriodDivisionsScratch(spg.NewAnalysis(g), pl, opts, d, sc)
			sc.Reset()
			sameResult(t, fmt.Sprintf("%s/%d divisions", name, d), got, gotOK, want, wantOK)
		}
	}
}
