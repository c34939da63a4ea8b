// Package experiments reproduces the evaluation of Section 6: the period
// bound selection protocol, the StreamIt campaigns (Figures 8-9, Table 2) and
// the random-SPG campaigns (Figures 10-13, Table 3). Results are plain data
// structures; render.go turns them into text tables and CSV.
//
// Since the campaign-engine refactor the package is a thin adapter layer:
// each campaign is a cell enumeration (StreamItCells, RandomCells) handed to
// internal/engine for execution plus a deterministic, order-independent
// reducer (ReduceStreamIt, ReduceRandom) folding the indexed cell results
// into the paper's tables. RunStreamIt and RunRandom keep the results of
// the pre-engine loops bit for bit. WorkloadCell is the one lowering of a
// named workload onto its cell, shared by the HTTP mapping service and the
// command-line tools (FlagCell), so every surface solves the graph the
// campaigns solve.
package experiments

import (
	"fmt"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// HeuristicNames lists the five heuristics in the paper's presentation
// order, derived from the authoritative core list so the two can never
// drift.
var HeuristicNames = func() []string {
	hs := core.All(0)
	names := make([]string, len(hs))
	for i, h := range hs {
		names[i] = h.Name()
	}
	return names
}()

// campaignOptions is the heuristic configuration of every experiment cell:
// the core defaults with a reduced DPA1D state budget, so that
// large-elevation instances fail fast, mirroring the tractability wall
// reported in Section 6.2 instead of burning hours on doomed enumerations.
func campaignOptions(seed int64) core.Options {
	return core.Options{Seed: seed, DPA1DMaxStates: 60_000}
}

// SelectPeriod implements the protocol of Section 6.1.3 under the campaign
// heuristic configuration: start at T = 1 s, divide the period by 10 while
// at least one heuristic still succeeds, and return the last period before
// total failure with the outcomes there; ok is false when every heuristic
// already fails at 1 s. The analysis is shared by every heuristic and
// division, and may serve concurrent calls.
func SelectPeriod(an *spg.Analysis, pl *platform.Platform, seed int64) (engine.InstanceResult, bool) {
	return engine.SelectPeriod(an, pl, campaignOptions(seed))
}

// ccrLabel names a CCR variant column ("orig", "10", "1", "0.1").
func ccrLabel(v float64, orig bool) string {
	if orig {
		return "orig"
	}
	switch v {
	case 10:
		return "10"
	case 1:
		return "1"
	case 0.1:
		return "0.1"
	default:
		return fmt.Sprintf("%g", v)
	}
}
