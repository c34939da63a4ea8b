package lint_test

import (
	"testing"

	"spgcmp/internal/lint"
	"spgcmp/internal/lint/linttest"
)

func TestDetrange(t *testing.T)  { linttest.Run(t, "detrange", lint.Detrange) }
func TestWirecodec(t *testing.T) { linttest.Run(t, "wirecodec", lint.Wirecodec) }
func TestMemoalias(t *testing.T) { linttest.Run(t, "memoalias", lint.Memoalias) }
func TestLockguard(t *testing.T) { linttest.Run(t, "lockguard", lint.Lockguard) }
func TestCtxflow(t *testing.T)   { linttest.Run(t, "ctxflow", lint.Ctxflow) }
func TestNofuse(t *testing.T)    { linttest.Run(t, "nofuse", lint.Nofuse) }

// TestScratchArena runs the aliasing and determinism analyzers over a
// fixture distilled from the scratch-arena kernels (core.Scratch plus a
// shared table seeded into and published out of arena memory by copying):
// the blessed copy-through-caller-memory shapes must stay silent, the
// uncopied cache returns must stay findings.
func TestScratchArena(t *testing.T) {
	linttest.Run(t, "scratcharena", lint.Memoalias, lint.Detrange)
}

// TestEngineMirror runs the relevant analyzers together over a fixture
// distilled from real internal/engine code (the WorkerRegistry probe/health
// machinery and the AnalysisCache keys/stats walks), with one seeded
// violation per invariant.
func TestEngineMirror(t *testing.T) {
	linttest.Run(t, "enginemirror", lint.Detrange, lint.Lockguard, lint.Ctxflow)
}
