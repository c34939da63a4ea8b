// Command spgmap maps a series-parallel workflow onto a CMP grid with the
// paper's heuristics and reports period feasibility, energy and the mapping
// layout. A -workload spec means what the same workload means in a /v1/map
// request: streamit:<Name> with -ccr is that application's campaign cell at
// that CCR (-ccr 0 keeps the application's own), and random: with -ccr is
// the random SPG generated at that CCR. chain: and file: graphs are solved
// as given, or rescaled to -ccr when it is positive.
//
// Examples:
//
//	spgmap -workload streamit:FMRadio -grid 4x4 -period 0.1
//	spgmap -workload random:n=50,elev=8,seed=3 -grid 6x6 -autoperiod -simulate
//	spgmap -workload chain:n=12 -grid 4x4 -period 0.05 -heuristic DPA1D -v
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"spgcmp/internal/core"
	"spgcmp/internal/exact"
	"spgcmp/internal/experiments"
	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/sim"
	"spgcmp/internal/spg"
	"spgcmp/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "spgmap:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and its standard output.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spgmap", flag.ContinueOnError)
	var (
		spec       = fs.String("workload", "streamit:FMRadio", "workload spec, as /v1/map means it: streamit:<Name> | random:n=..,elev=..,seed=.. | chain:n=..,seed=.. | file:<path>")
		grid       = fs.String("grid", "4x4", "CMP grid size PxQ")
		period     = fs.Float64("period", 0.1, "period bound T in seconds")
		autoPeriod = fs.Bool("autoperiod", false, "select T with the Section 6.1.3 protocol (start 1s, divide by 10)")
		ccr        = fs.Float64("ccr", 0, "CCR of the workload: a streamit: campaign variant, a random: generation CCR, or a rescaling of chain:/file: volumes (0 = the workload's own)")
		heuristic  = fs.String("heuristic", "all", "all | Random | Greedy | DPA2D | DPA1D | DPA2D1D | Exact")
		seed       = fs.Int64("seed", 1, "seed for the Random heuristic")
		exactRun   = fs.Bool("exact", false, "also run the branch-and-bound exact solver after the heuristics (small instances only)")
		exactBudg  = fs.Int("exact-budget", 0, "exact solver placement budget; 0 keeps the default (30M)")
		simulate   = fs.Bool("simulate", false, "run the pipeline simulator on each solution")
		refine     = fs.Bool("refine", false, "apply the local-search refinement pass to each solution")
		saveBest   = fs.String("save", "", "write the best mapping as JSON to this file")
		verbose    = fs.Bool("v", false, "print the core-by-core layout of each solution")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ws, err := workload.Parse(*spec)
	if err != nil {
		return err
	}
	p, q, err := workload.ParseGrid(*grid)
	if err != nil {
		return err
	}
	cell, err := experiments.FlagCell(ws, *ccr, p, q, *seed)
	if err != nil {
		return err
	}
	// One analysis serves the summary line, the period protocol and every
	// heuristic run.
	an, err := cell.Spec.Analyze()
	if err != nil {
		return err
	}
	g := an.Graph()
	pl := platform.XScale(p, q)
	fmt.Fprintf(stdout, "Workload %s: n=%d stages, %d edges, ymax=%d, xmax=%d, CCR=%.3g\n",
		*spec, g.N(), g.M(), an.Elevation(), an.Depth(), an.CCR())
	fmt.Fprintf(stdout, "Platform: %dx%d XScale grid, speeds %v GHz, BW %.3g GB/s\n", p, q, pl.Speeds, pl.BW)

	T := *period
	if *autoPeriod {
		ir, ok := experiments.SelectPeriod(an, pl, *seed)
		if !ok {
			msg := "autoperiod: no heuristic succeeds even at T = 1 s"
			fmt.Fprintln(stdout, msg)
			return errors.New(msg)
		}
		T = ir.Period
		fmt.Fprintf(stdout, "Selected period: T = %g s\n", T)
	}
	fmt.Fprintf(stdout, "Period bound: T = %g s (link capacity %.3g GB/period)\n\n", T, pl.LinkCapacity(T))

	inst := core.Instance{Graph: g, Platform: pl, Period: T, Analysis: an}
	hs, err := pickHeuristics(*heuristic, *seed, *exactBudg)
	if err != nil {
		return err
	}
	if *exactRun && !strings.EqualFold(*heuristic, "Exact") {
		hs = append(hs, newExact(*exactBudg))
	}
	var best *core.Solution
	for _, h := range hs {
		sol, err := h.Solve(inst)
		if err != nil {
			fmt.Fprintf(stdout, "%-8s FAILED: %v\n", h.Name(), err)
			continue
		}
		if *refine {
			sol = core.NewRefiner().Refine(inst, sol)
		}
		if best == nil || sol.Energy() < best.Energy() {
			best = sol
		}
		r := sol.Result
		fmt.Fprintf(stdout, "%-8s energy %.6g J/period  (comp: leak %.4g + dyn %.4g; comm %.4g)  maxCycle %.4g s  cores %d  links %d\n",
			sol.Heuristic, r.Energy, r.CompLeakEnergy, r.CompDynEnergy, r.CommDynEnergy,
			r.MaxCycleTime, r.ActiveCores, r.UsedLinks)
		if *verbose {
			printLayout(stdout, g, pl, sol.Mapping)
		}
		if *simulate {
			sat, err := sim.Run(g, pl, sol.Mapping, T, sim.Options{DataSets: 512, Saturated: true})
			if err != nil {
				return err
			}
			arr, err := sim.Run(g, pl, sol.Mapping, T, sim.Options{DataSets: 512})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "         simulated: intrinsic period %.6g s (analytic %.6g), steady period %.6g s, latency %.4g s\n",
				sat.MeasuredPeriod, sat.AnalyticPeriod, arr.MeasuredPeriod, arr.MeanLatency)
		}
	}
	if *saveBest != "" {
		if best == nil {
			return errors.New("no solution to save")
		}
		f, err := os.Create(*saveBest)
		if err != nil {
			return err
		}
		if err := best.Mapping.WriteJSON(f, pl); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nSaved best mapping (%s, %.6g J) to %s\n", best.Heuristic, best.Energy(), *saveBest)
	}
	return nil
}

// newExact builds the branch-and-bound exact solver with the CLI's
// placement budget.
func newExact(budget int) *exact.Solver {
	s := exact.NewSolver()
	if budget > 0 {
		s.MaxPlacements = budget
	}
	return s
}

func pickHeuristics(name string, seed int64, budget int) ([]core.Heuristic, error) {
	if name == "all" {
		return core.All(seed), nil
	}
	if strings.EqualFold(name, "Exact") {
		return []core.Heuristic{newExact(budget)}, nil
	}
	for _, h := range core.All(seed) {
		if strings.EqualFold(h.Name(), name) {
			return []core.Heuristic{h}, nil
		}
	}
	return nil, fmt.Errorf("unknown heuristic %q", name)
}

func printLayout(w io.Writer, g *spg.Graph, pl *platform.Platform, m *mapping.Mapping) {
	cores, byCore := m.Clusters(pl)
	sort.Slice(cores, func(i, j int) bool {
		if cores[i].U != cores[j].U {
			return cores[i].U < cores[j].U
		}
		return cores[i].V < cores[j].V
	})
	for _, c := range cores {
		stages := byCore[c]
		var work float64
		for _, s := range stages {
			work += g.Stages[s].Weight
		}
		names := make([]string, len(stages))
		for i, s := range stages {
			names[i] = fmt.Sprintf("S%d", s+1)
		}
		fmt.Fprintf(w, "         %v @ %.3g GHz: %.4g Gcycles, %d stages: %s\n",
			c, pl.Speeds[m.SpeedOf(pl, c)], work, len(stages), strings.Join(names, " "))
	}
}
