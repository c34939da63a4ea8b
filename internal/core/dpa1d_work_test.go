package core_test

import (
	"context"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/experiments"
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
// pair does on a fresh campaign cache: at most 126 executed runs, at most
// 6 of them budget failures. Every other Solve replays a verdict or a
// memoized solution.
func TestDPA1DCampaignWorkCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full Fig 8 + Fig 9 pair")
	}
	runs, fails := dpa1dCampaignWork(t, nil)
	t.Logf("one pair: %d DPA1D runs executed, %d budget failures", runs, fails)
	if runs > 126 || fails > 6 {
		t.Fatalf("one pair executed %d DPA1D runs with %d budget failures, want at most 126 and 6", runs, fails)
	}
}

// TestDPA1DFamilyWorkCount is TestDPA1DCampaignWorkCount's short sibling on
// FMRadio's four CCR cells: its first budget failure, at the first
// all-fail division on 4x4, answers the returned period's DPA1D on 4x4 and
// every budget failure on 6x6, so one pair executes at most 6 runs and 1
// budget failure.
func TestDPA1DFamilyWorkCount(t *testing.T) {
	app, err := streamit.ByName("FMRadio")
	if err != nil {
		t.Fatal(err)
	}
	runs, fails := dpa1dCampaignWork(t, []streamit.App{app})
	t.Logf("FMRadio pair: %d DPA1D runs executed, %d budget failures", runs, fails)
	if runs > 6 || fails > 1 {
		t.Fatalf("FMRadio pair executed %d DPA1D runs with %d budget failures, want at most 6 and 1", runs, fails)
	}
}
