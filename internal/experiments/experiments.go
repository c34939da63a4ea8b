// Package experiments reproduces the evaluation of Section 6: the period
// bound selection protocol, the StreamIt campaigns (Figures 8-9, Table 2) and
// the random-SPG campaigns (Figures 10-13, Table 3). Results are plain data
// structures; render.go turns them into text tables and CSV.
//
// Since the campaign-engine refactor the package is a thin adapter layer:
// each campaign is a cell enumeration (StreamItCells, RandomCells) handed to
// internal/engine for execution plus a deterministic, order-independent
// reducer (ReduceStreamIt, ReduceRandom) folding the indexed cell results
// into the paper's tables. The legacy entry points — RunStreamIt, RunRandom,
// SelectPeriod — keep their exact signatures and bit-identical results; the
// engine is the seam that also serves the HTTP mapping service and, later,
// distributed shard runners.
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

// Heuristics returns the heuristic set used by the experiment campaigns (see
// campaignOptions).
func Heuristics(seed int64) []core.Heuristic {
	return core.AllWith(campaignOptions(seed))
}

// SelectPeriod implements the protocol of Section 6.1.3: start at T = 1 s,
// iteratively divide the period by 10 while at least one heuristic still
// succeeds, and retain the last period before total failure, together with
// the heuristic outcomes at that period. ok is false when every heuristic
// already fails at 1 s.
//
// One analysis cache is built per workload and shared across all heuristics
// and all period divisions: validation, reachability, level and band
// structures and the interned downset space are computed once instead of
// once per (heuristic, period) pair.
func SelectPeriod(g *spg.Graph, pl *platform.Platform, seed int64) (engine.InstanceResult, bool) {
	return SelectPeriodAnalyzed(spg.NewAnalysis(g), pl, seed)
}

// SelectPeriodAnalyzed is SelectPeriod over a pre-built (possibly shared)
// analysis: campaigns pass scale-family members and campaign-cache hits here
// so the protocol starts from whatever structures earlier runs on the same
// workload family already built. The analysis is only read through its
// concurrency-safe accessors, so one analysis may serve several concurrent
// calls. It is engine.SelectPeriod under the campaign heuristic
// configuration.
func SelectPeriodAnalyzed(an *spg.Analysis, pl *platform.Platform, seed int64) (engine.InstanceResult, bool) {
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
