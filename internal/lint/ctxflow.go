package lint

import (
	"go/ast"
)

// Ctxflow keeps request-path code honest about context propagation: the
// engine and service layers receive a context.Context at every entry point
// (HTTP handlers, Executor.ExecuteScratch, dispatch loops), and cancellation is
// load-bearing — DELETE /v1/campaign reaches into a worker's solver through
// it. Minting a fresh root context severs that chain, so ctxflow flags:
//
//   - context.Background() and context.TODO() calls;
//   - the context-less HTTP helpers http.NewRequest, http.Get, http.Post,
//     http.PostForm and http.Head (use http.NewRequestWithContext).
//
// Deliberately detached lifecycles — the registry's probe loop, async
// campaign jobs that outlive their submitting request, the exact solver's
// core.Heuristic compatibility shim over its context-taking entry point —
// are annotated with //spglint:ignore and a written reason instead.
//
// The exact package is covered because its searches run for seconds to
// minutes: SolveContext threads ctx into every enumeration loop, and the
// analyzer keeps new entry points from quietly minting detached roots.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "request-path code must propagate the incoming context.Context: no " +
		"context.Background()/TODO(), no context-less http request helpers",
	Packages: []string{
		"spgcmp/internal/engine",
		"spgcmp/internal/exact",
		"spgcmp/internal/service",
	},
	Run: runCtxflow,
}

var ctxlessHTTPHelpers = map[string]bool{
	"NewRequest": true, "Get": true, "Post": true, "PostForm": true, "Head": true,
}

func runCtxflow(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch {
			case pkgNameOf(pass.TypesInfo, sel.X, "context") &&
				(sel.Sel.Name == "Background" || sel.Sel.Name == "TODO"):
				pass.Reportf(call.Pos(), "context.%s() mints a fresh root context on the request path; propagate the incoming ctx", sel.Sel.Name)
			case pkgNameOf(pass.TypesInfo, sel.X, "net/http") && ctxlessHTTPHelpers[sel.Sel.Name]:
				pass.Reportf(call.Pos(), "http.%s ignores the incoming context; use http.NewRequestWithContext", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
