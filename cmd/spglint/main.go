// Command spglint is spgcmp's invariant multichecker: it runs the six
// internal/lint analyzers (detrange, wirecodec, memoalias, lockguard,
// ctxflow, nofuse) over the named packages, and nofuse also over their
// _test.go files, and exits nonzero on any unsuppressed finding. CI runs
// `spglint ./...` as a required job.
//
// Usage:
//
//	spglint [-v] [-list] [packages...]
//
// With no packages, ./... is checked. -v also prints suppressed findings
// with their //spglint:ignore reasons (the audit trail for deliberate
// exemptions). -list prints the analyzers and exits.
//
// Findings are suppressed with a directive on the flagged line or the line
// above it:
//
//	//spglint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; a bare directive is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"spgcmp/internal/lint"
)

func main() {
	verbose := flag.Bool("v", false, "also print suppressed findings with their reasons")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spglint:", err)
		os.Exit(2)
	}

	failed := false
	checked := 0
	for _, pkg := range pkgs {
		var active []*lint.Analyzer
		for _, a := range analyzers {
			if a.Enforced(pkg) {
				active = append(active, a)
			}
		}
		// The malformed-suppression check runs everywhere, even where no
		// analyzer is enforced, so a directive can never silently rot.
		diags, err := lint.Check(pkg, active)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spglint:", err)
			os.Exit(2)
		}
		checked++
		for _, d := range diags {
			if d.Suppressed {
				if *verbose {
					fmt.Println(d)
				}
				continue
			}
			fmt.Println(d)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	if *verbose {
		fmt.Printf("spglint: %d packages checked\n", checked)
	}
}
