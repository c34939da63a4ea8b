package core

import (
	"testing"

	"spgcmp/internal/platform"
)

// TestArenaAllocReset exercises the bump allocator: carved slices must be
// disjoint, reset must rewind to a single retained block, and oversized
// blocks must be released.
func TestArenaAllocReset(t *testing.T) {
	var a arena[float64]
	x := a.alloc(10)
	y := a.alloc(10)
	for i := range x {
		x[i] = 1
	}
	for i := range y {
		y[i] = 2
	}
	for i := range x {
		if x[i] != 1 {
			t.Fatalf("overlapping arena slices: x[%d] = %g", i, x[i])
		}
	}
	if got := a.alloc(0); got != nil {
		t.Fatalf("alloc(0) = %v, want nil", got)
	}
	// Force several blocks, then reset: one block remains and is reused.
	a.alloc(5000)
	if len(a.blocks) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(a.blocks))
	}
	a.reset()
	if len(a.blocks) != 1 {
		t.Fatalf("reset retained %d blocks, want 1", len(a.blocks))
	}
	retained := &a.blocks[0][0]
	z := a.alloc(8)
	if &z[0] != retained {
		t.Fatal("reset did not rewind to the retained block")
	}
	// An over-cap block is dropped on reset.
	a.alloc(arenaMaxRetain + 1)
	a.reset()
	if len(a.blocks) != 0 {
		t.Fatalf("oversized block survived reset: %d blocks", len(a.blocks))
	}
}

// TestScratchNilSafety: every alloc method of a nil Scratch falls back to
// plain make, and Reset/Child are no-ops.
func TestScratchNilSafety(t *testing.T) {
	var s *Scratch
	s.Reset()
	if c := s.Child(3); c != nil {
		t.Fatalf("nil.Child = %v, want nil", c)
	}
	if got := len(s.F64(4)); got != 4 {
		t.Fatalf("nil.F64 len = %d", got)
	}
	if got := len(s.I32(4)); got != 4 {
		t.Fatalf("nil.I32 len = %d", got)
	}
	if got := len(s.Ints(4)); got != 4 {
		t.Fatalf("nil.Ints len = %d", got)
	}
	if got := len(s.distEntries(4)); got != 4 {
		t.Fatalf("nil.distEntries len = %d", got)
	}
	m := s.F64Rows(3, 5)
	if len(m) != 3 || len(m[0]) != 5 {
		t.Fatalf("nil.F64Rows shape = %dx%d", len(m), len(m[0]))
	}
	n := s.IntRows(3, 5)
	if len(n) != 3 || len(n[0]) != 5 {
		t.Fatalf("nil.IntRows shape = %dx%d", len(n), len(n[0]))
	}
}

// TestScratchRowsDisjoint: matrix rows are disjoint windows of one block.
func TestScratchRowsDisjoint(t *testing.T) {
	s := NewScratch()
	m := s.F64Rows(4, 3)
	for r := range m {
		for c := range m[r] {
			m[r][c] = float64(10*r + c)
		}
	}
	for r := range m {
		for c := range m[r] {
			if m[r][c] != float64(10*r+c) {
				t.Fatalf("rows overlap at [%d][%d]", r, c)
			}
		}
	}
	// Row headers must not allow appends to bleed into the next row.
	if cap(m[0]) != 3 {
		t.Fatalf("row cap = %d, want 3", cap(m[0]))
	}
}

// TestScratchResetClearsRowHeaders: after Reset, retained row-header blocks
// hold no stale slice headers that would pin released element blocks.
func TestScratchResetClearsRowHeaders(t *testing.T) {
	s := NewScratch()
	s.F64Rows(4, 8)
	s.Reset()
	blk := s.f64rows.blocks
	for _, b := range blk {
		for i, h := range b {
			if h != nil {
				t.Fatalf("stale row header at %d after Reset", i)
			}
		}
	}
}

// TestArenaResetClearZeroesRetained: after allocations spread over several
// blocks and a resetClear, every element of the retained block is zero, and
// it stays so over further cycles that carve only part of it.
func TestArenaResetClearZeroesRetained(t *testing.T) {
	var a arena[[]float64]
	row := []float64{1}
	fill := func(n int) {
		for i, blk := 0, a.alloc(n); i < len(blk); i++ {
			blk[i] = row
		}
	}
	check := func(cycle int) {
		t.Helper()
		if len(a.blocks) != 1 {
			t.Fatalf("cycle %d: %d retained blocks, want 1", cycle, len(a.blocks))
		}
		for i, h := range a.blocks[0] {
			if h != nil {
				t.Fatalf("cycle %d: retained element %d not cleared", cycle, i)
			}
		}
	}
	for _, n := range []int{700, 500, 3000, 9} { // spills into three blocks
		fill(n)
	}
	a.resetClear()
	check(0)
	for cycle, sizes := range [][]int{{5, 17, 100}, {2000}, {1}, {4096, 4096}} {
		for _, n := range sizes {
			fill(n)
		}
		a.resetClear()
		check(cycle + 1)
	}
}

// TestScratchChildren: children are distinct, created on demand, and reset
// with the parent.
func TestScratchChildren(t *testing.T) {
	s := NewScratch()
	c0, c1 := s.Child(0), s.Child(1)
	if c0 == nil || c1 == nil || c0 == c1 {
		t.Fatal("children not distinct")
	}
	if s.Child(0) != c0 {
		t.Fatal("Child(0) not stable")
	}
	c0.F64(100)
	s.Reset()
	if c0.f64.off != 0 || c0.f64.cur != 0 {
		t.Fatal("child not reset with parent")
	}
}

// scratchAllocInstance is the warm instance the steady-state allocation tests
// share: a mid-size random SPG with an attached analysis, solved once so its
// shared structures (bands, downsets) are populated.
func scratchAllocInstance(t *testing.T) Instance {
	t.Helper()
	g := testRandomSPG(t, 7, 40, 1)
	inst := NewInstance(g, platform.XScale(4, 4), 0.5)
	inst.Scratch = NewScratch()
	return inst
}

// testSolveSteadyAllocs warms h on inst, then bounds the steady-state heap
// allocations of one solve + arena reset. The bounds are regression tripwires
// for the flattened kernels (pre-flattening, a DPA2D solve on this instance
// allocated thousands of times): generous enough to absorb allocator noise,
// tight enough that reintroducing a per-cell table or per-transition map
// blows them immediately.
func testSolveSteadyAllocs(t *testing.T, h Heuristic, inst Instance, maxAllocs float64) {
	t.Helper()
	if _, err := h.Solve(inst); err != nil {
		t.Fatalf("%s: %v", h.Name(), err)
	}
	inst.Scratch.Reset()
	got := testing.AllocsPerRun(20, func() {
		if _, err := h.Solve(inst); err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		inst.Scratch.Reset()
	})
	t.Logf("%s: %.0f allocs per warm solve (bound %.0f)", h.Name(), got, maxAllocs)
	if got > maxAllocs {
		t.Errorf("%s: %.0f allocs per warm solve, want <= %.0f", h.Name(), got, maxAllocs)
	}
}

// TestSteadyStateAllocs bounds the warm-path allocation count of each DP
// heuristic when a scratch arena is attached — the PoolExecutor worker
// steady state.
func TestSteadyStateAllocs(t *testing.T) {
	inst := scratchAllocInstance(t)
	t.Run("DPA2D", func(t *testing.T) {
		testSolveSteadyAllocs(t, NewDPA2D(), inst, 250)
	})
	t.Run("DPA2D1D", func(t *testing.T) {
		testSolveSteadyAllocs(t, NewDPA2D1D(), inst, 250)
	})
	t.Run("DPA1D", func(t *testing.T) {
		// Warm DPA1D runs its DP on the populated downset space, then builds
		// the mapping, routes and evaluation (90 allocations, go1.24 on
		// amd64).
		testSolveSteadyAllocs(t, NewDPA1D(), inst, 250)
	})
}
