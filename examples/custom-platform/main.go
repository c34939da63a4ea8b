// Custom-platform example: the library is not tied to the paper's Intel
// XScale model. This example defines a hypothetical 8-mode near-threshold
// CMP, maps the same workflow on it and on the XScale reference, compares
// the winners, and cross-checks a tiny instance against the exact
// branch-and-bound solver (the role played by CPLEX in Section 4.4). It also
// emits the instance's ILP in LP format to stdout-compatible sizing stats.
package main

import (
	"fmt"
	"log"

	"spgcmp/internal/core"
	"spgcmp/internal/exact"
	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
)

func main() {
	// A dense-DVFS design: eight speed steps with an aggressive low-power
	// region (power grows roughly with the cube of frequency).
	custom := &platform.Platform{
		P: 4, Q: 4,
		Speeds:      []float64{0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0, 1.2},
		DynPower:    []float64{0.020, 0.080, 0.190, 0.380, 0.660, 1.050, 1.600, 2.500},
		LeakPower:   0.050,
		BW:          12.8, // narrower 8-byte links at 1.6 GHz
		EnergyPerGB: 8e-12 * 8e9,
	}
	if err := custom.Validate(); err != nil {
		log.Fatal(err)
	}
	xscale := platform.XScale(4, 4)

	g, err := randspg.Generate(randspg.Params{N: 45, Elevation: 7, Seed: 11, CCR: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Workflow: %v, CCR %.3g\n\n", g, spg.CCR(g))

	for _, tc := range []struct {
		name string
		pl   *platform.Platform
	}{{"XScale 5-mode", xscale}, {"custom 8-mode", custom}} {
		inst := core.Instance{Graph: g, Platform: tc.pl, Period: 0.4}
		var best *core.Solution
		for _, h := range core.All(5) {
			if sol, err := h.Solve(inst); err == nil && (best == nil || sol.Energy() < best.Energy()) {
				best = sol
			}
		}
		if best == nil {
			fmt.Printf("%-14s: no valid mapping at T=0.4s\n", tc.name)
			continue
		}
		fmt.Printf("%-14s: best %s, %.5g J/period on %d cores\n",
			tc.name, best.Heuristic, best.Energy(), best.Result.ActiveCores)
	}

	// Exact cross-check on a tiny instance and the custom platform shrunk to
	// 2x2 (the scale the paper's ILP could handle).
	small, err := randspg.Generate(randspg.Params{N: 7, Elevation: 2, Seed: 3, CCR: 10})
	if err != nil {
		log.Fatal(err)
	}
	tiny := &platform.Platform{
		P: 2, Q: 2,
		Speeds: custom.Speeds, DynPower: custom.DynPower,
		LeakPower: custom.LeakPower, BW: custom.BW, EnergyPerGB: custom.EnergyPerGB,
	}
	inst := core.Instance{Graph: small, Platform: tiny, Period: 0.5}
	opt, err := exact.NewSolver().Solve(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nExact optimum on 2x2 (n=%d): %.5g J/period\n", small.N(), opt.Energy())
	for _, h := range core.All(5) {
		sol, err := h.Solve(inst)
		if err != nil {
			fmt.Printf("  %-8s failed\n", h.Name())
			continue
		}
		fmt.Printf("  %-8s %.5g J/period (%.1f%% above optimal)\n",
			h.Name(), sol.Energy(), 100*(sol.Energy()/opt.Energy()-1))
	}

	stats, err := exact.WriteILP(discard{}, inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSection 4.4 ILP for this instance: %d binary variables, %d constraints (see cmd/ilpgen to export)\n",
		stats.Variables, stats.Constraints)
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
