// StreamIt example: map every workflow of the StreamIt suite (Table 1 of the
// paper) onto a 4x4 CMP at its protocol-selected period and print which
// heuristic wins where — the paper's central observation is that each
// specialized heuristic dominates on the graph shape it was designed for:
// DPA1D/DPA2D1D on long pipeline-like graphs, DPA2D on fat graphs of large
// elevation, with Greedy robust but dominated.
package main

import (
	"fmt"
	"log"
	"math"

	"spgcmp/internal/experiments"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

func main() {
	pl := platform.XScale(4, 4)
	fmt.Println("StreamIt suite on a 4x4 XScale CMP (original CCR, protocol-selected period)")
	fmt.Printf("%-16s %4s %5s %5s  %9s  %-8s  %s\n",
		"app", "n", "ymax", "xmax", "T (s)", "winner", "normalized energies")

	for _, app := range streamit.Suite() {
		g, err := app.Graph()
		if err != nil {
			log.Fatal(err)
		}
		ir, ok := experiments.SelectPeriod(spg.NewAnalysis(g), pl, int64(app.Index))
		if !ok {
			fmt.Printf("%-16s %4d %5d %5d  infeasible at 1 s\n", app.Name, app.N, app.YMax, app.XMax)
			continue
		}
		best := ir.BestEnergy()
		winner := "-"
		detail := ""
		for _, o := range ir.Outcomes {
			if !o.OK {
				detail += fmt.Sprintf("%s=-  ", o.Heuristic)
				continue
			}
			norm := o.Energy / best
			if math.Abs(norm-1) < 1e-9 {
				winner = o.Heuristic
			}
			detail += fmt.Sprintf("%s=%.2f  ", o.Heuristic, norm)
		}
		fmt.Printf("%-16s %4d %5d %5d  %9.0e  %-8s  %s\n",
			app.Name, app.N, app.YMax, app.XMax, ir.Period, winner, detail)
	}
}
