// Command spggen generates series-parallel workflows and writes them as JSON
// (loadable by spgmap via file:) or Graphviz DOT. A -workload spec and -ccr
// mean what they mean to spgmap and to /v1/map: the graph written is the one
// a campaign cell or a /v1/map request for the same workload solves.
//
// Examples:
//
//	spggen -workload random:n=50,elev=8,seed=3 -format dot -o graph.dot
//	spggen -workload streamit:Vocoder -ccr 1 -o vocoder.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spgcmp/internal/experiments"
	"spgcmp/internal/workload"
)

func main() {
	var (
		spec   = flag.String("workload", "random:n=50,elev=8,seed=1", "workload spec, as /v1/map means it (see spgmap)")
		ccr    = flag.Float64("ccr", 0, "CCR of the workload, as in spgmap (0 = the workload's own)")
		format = flag.String("format", "json", "json | dot")
		out    = flag.String("o", "", "output file (empty = stdout)")
	)
	flag.Parse()

	ws, err := workload.Parse(*spec)
	fatalIf(err)
	// The grid does not enter the graph.
	cell, err := experiments.FlagCell(ws, *ccr, 1, 1, 0)
	fatalIf(err)
	an, err := cell.Spec.Analyze()
	fatalIf(err)
	g := an.Graph()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		fatalIf(err)
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		fatalIf(g.WriteJSON(w))
	case "dot":
		fatalIf(g.WriteDOT(w, *spec))
	default:
		fatalIf(fmt.Errorf("unknown format %q", *format))
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spggen:", err)
		os.Exit(1)
	}
}
