package core_test

import (
	"context"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/experiments"
)

// TestDPA1DCampaignWorkCount pins how much DPA1D work one Fig 8 + Fig 9
// pair does on a fresh campaign cache: at most 131 executed runs, at most
// 11 of them budget failures. Every other Solve replays a verdict or a
// memoized solution. The count is a property of each family's cell order,
// which a serial pool fixes, so it repeats exactly.
func TestDPA1DCampaignWorkCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full Fig 8 + Fig 9 pair")
	}
	runs0, fails0 := core.DPA1DWork()
	cache := experiments.NewAnalysisCache(512)
	for _, grid := range [][2]int{{4, 4}, {6, 6}} {
		_, err := engine.Run(context.Background(), &engine.PoolExecutor{Workers: 1}, engine.Campaign{
			Cells: experiments.StreamItCells(grid[0], grid[1], nil, 1),
			Cache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runs1, fails1 := core.DPA1DWork()
	runs, fails := runs1-runs0, fails1-fails0
	t.Logf("one pair: %d DPA1D runs executed, %d budget failures", runs, fails)
	if runs > 131 || fails > 11 {
		t.Fatalf("one pair executed %d DPA1D runs with %d budget failures, want at most 131 and 11", runs, fails)
	}
}
