package core_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/experiments"
	"spgcmp/internal/platform"
	"spgcmp/internal/streamit"
)

// dpa1dCampaignWork runs the StreamIt cells of apps (nil: all twelve) on
// 4x4 then 6x6 through a serial pool on one fresh campaign cache and
// returns the DPA1D runs executed and how many of them ran out of budget.
// The count is a property of each family's cell order, which a serial pool
// fixes, so it repeats exactly.
func dpa1dCampaignWork(t *testing.T, apps []streamit.App) (runs, fails int64) {
	t.Helper()
	runs0, fails0 := core.DPA1DWork()
	cache := experiments.NewAnalysisCache(512)
	for _, grid := range [][2]int{{4, 4}, {6, 6}} {
		_, err := engine.Run(context.Background(), &engine.PoolExecutor{Workers: 1}, engine.Campaign{
			Cells: experiments.StreamItCells(grid[0], grid[1], apps, 1),
			Cache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runs1, fails1 := core.DPA1DWork()
	return runs1 - runs0, fails1 - fails0
}

// TestDPA1DCampaignWorkCount pins how much DPA1D work one Fig 8 + Fig 9
// pair does on a fresh campaign cache: at most 65 executed runs, at most 9
// of them budget failures. Every other Solve replays a verdict or a
// memoized solution, and no DPA1D runs at a period the capacity certificate
// answers. The nine failures are the five exploding apps' layer-1 failures
// at T = 1 s on 4x4 (T = 0.1 s is certified there), BitonicSort's
// transition-budget failure, and the explosions of FMRadio, ChannelVocoder
// and Beamformer on 6x6 at T = 0.1 s, where their work is under capacity.
func TestDPA1DCampaignWorkCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full Fig 8 + Fig 9 pair")
	}
	runs, fails := dpa1dCampaignWork(t, nil)
	t.Logf("one pair: %d DPA1D runs executed, %d budget failures", runs, fails)
	if runs > 65 || fails > 9 {
		t.Fatalf("one pair executed %d DPA1D runs with %d budget failures, want at most 65 and 9", runs, fails)
	}
}

// TestDPA1DFamilyWorkCount is TestDPA1DCampaignWorkCount's short sibling on
// FMRadio's four CCR cells. On 4x4 the certificate answers T = 0.1 s, and
// the returned T = 1 s runs out of states in layer 1; that verdict answers
// every sibling and 6x6 at 1 s. On 6x6 T = 0.1 s is under capacity: the
// original CCR explodes there, and CCR 0.1, whose heavy cuts no verdict
// certifies, runs and finds no mapping. So one pair executes at most 3 runs
// and 2 budget failures.
func TestDPA1DFamilyWorkCount(t *testing.T) {
	app, err := streamit.ByName("FMRadio")
	if err != nil {
		t.Fatal(err)
	}
	runs, fails := dpa1dCampaignWork(t, []streamit.App{app})
	t.Logf("FMRadio pair: %d DPA1D runs executed, %d budget failures", runs, fails)
	if runs > 3 || fails > 2 {
		t.Fatalf("FMRadio pair executed %d DPA1D runs with %d budget failures, want at most 3 and 2", runs, fails)
	}
}

// TestDPA1DLayerOneFailureAllocations bounds what a fresh analysis
// allocates for FMRadio's DPA1D at T = 1 s on 4x4 under the campaign's
// 60,000-state budget, a state explosion in layer 1. The downset lattice
// has 8.0e6 states by its SP-tree count, so once it passes 4,096 states
// its space reserves room for the whole budget in one step: the run
// allocates about 16 MB, where growing the arenas by doubling allocated
// 51 MB.
func TestDPA1DLayerOneFailureAllocations(t *testing.T) {
	app, err := streamit.ByName("FMRadio")
	if err != nil {
		t.Fatal(err)
	}
	g, err := app.Graph()
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewDPA1D()
	h.MaxStates = 60_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = h.Solve(core.NewInstance(g, platform.XScale(4, 4), 1))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("FMRadio at T = 1 s: %v, want a budget failure", err)
	}
	const bound = 24 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("the layer-1 failure allocated %d bytes, want at most %d", got, bound)
	}
}
