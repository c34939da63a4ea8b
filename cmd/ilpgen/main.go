// Command ilpgen emits the Section 4.4 integer linear program for a
// MinEnergy(T) instance in CPLEX LP format. Any MIP solver (CPLEX, Gurobi,
// CBC, SCIP, HiGHS) accepts the file; the paper solved instances up to a 2x2
// CMP this way. A -workload spec and -ccr mean what they mean to spgmap and
// to /v1/map.
//
// Example:
//
//	ilpgen -workload chain:n=5,seed=1 -grid 2x2 -period 0.2 -o chain5.lp
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spgcmp/internal/core"
	"spgcmp/internal/exact"
	"spgcmp/internal/experiments"
	"spgcmp/internal/platform"
	"spgcmp/internal/workload"
)

func main() {
	var (
		spec   = flag.String("workload", "chain:n=5,seed=1", "workload spec, as /v1/map means it (see spgmap)")
		grid   = flag.String("grid", "2x2", "CMP grid size PxQ")
		period = flag.Float64("period", 0.2, "period bound T in seconds")
		ccr    = flag.Float64("ccr", 0, "CCR of the workload, as in spgmap (0 = the workload's own)")
		out    = flag.String("o", "", "output file (empty = stdout)")
	)
	flag.Parse()

	ws, err := workload.Parse(*spec)
	fatalIf(err)
	p, q, err := workload.ParseGrid(*grid)
	fatalIf(err)
	cell, err := experiments.FlagCell(ws, *ccr, p, q, 0)
	fatalIf(err)
	an, err := cell.Spec.Analyze()
	fatalIf(err)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		fatalIf(err)
		defer f.Close()
		w = f
	}
	stats, err := exact.WriteILP(w, core.Instance{
		Graph:    an.Graph(),
		Platform: platform.XScale(p, q),
		Period:   *period,
		Analysis: an,
	})
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "ilpgen: %d binary variables, %d constraints\n", stats.Variables, stats.Constraints)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ilpgen:", err)
		os.Exit(1)
	}
}
