package core

import "sync"

// Scratch is a per-worker allocation arena for the DP kernels: the buffers a
// single cell solve needs (DPA1D layer tables, DPA2D row/transfer tables,
// row-load vectors) are carved out of a few growable blocks instead of being
// allocated per call, so a long-lived pool worker reaches a steady state
// where solving a cell performs no kernel allocations at all.
//
// Ownership and lifetime rules (also documented in doc.go):
//
//   - A Scratch belongs to exactly one goroutine at a time. Pool workers own
//     one for their whole life (engine.PoolExecutor threads it through
//     ExecuteScratch); everyone else borrows one from the package pool via
//     GetScratch/PutScratch. Sharing a live Scratch across goroutines is a
//     data race.
//   - Reset must be called between cells (the engine does this; solvers
//     never call it). Reset recycles every outstanding buffer at once:
//     nothing handed out before the Reset may be used after it.
//   - Buffers come back dirty. Alloc methods do not zero memory; kernel code
//     fully initializes what it reads, exactly as it had to when the buffers
//     were fresh make() allocations filled with +Inf/-1 sentinels.
//   - Solvers must accept a nil Scratch (they allocate a fresh one), so
//     every call path — pooled or not — runs the same kernel code.
//
// Determinism: the arena only changes where bytes live, never what is
// computed; all results remain bit-identical to per-call allocation.
type Scratch struct {
	f64     arena[float64]
	i32     arena[int32]
	ints    arena[int]
	dist    arena[distEntry]
	f64rows arena[[]float64]
	introws arena[[]int]

	// children are sub-arenas for solvers that fan one instance across
	// goroutines (the exact solver's search workers and seeding pass): each
	// goroutine gets its own child so concurrent allocation needs no locks.
	// Children reset with their parent.
	children []*Scratch
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch { return &Scratch{} }

// Reset recycles every buffer handed out since the last Reset. The largest
// block of each arena is retained (up to a soft cap) so steady-state reuse
// allocates nothing; oversized transients from pathological cells are
// released back to the GC.
func (s *Scratch) Reset() {
	if s == nil {
		return
	}
	s.f64.reset()
	s.i32.reset()
	s.ints.reset()
	s.dist.reset()
	// Row-header arenas hold slice headers: clear them so a retained header
	// block cannot pin element blocks the element arenas just released.
	s.f64rows.resetClear()
	s.introws.resetClear()
	for _, c := range s.children {
		c.Reset()
	}
}

// Child returns the i-th sub-arena, creating it on first use. Parallel
// solvers hand child i to goroutine i; the parent must not allocate while
// children are live (the children's memory is independent, but the rule
// keeps ownership trivially auditable). Child of a nil Scratch is nil,
// which every alloc method accepts.
func (s *Scratch) Child(i int) *Scratch {
	if s == nil {
		return nil
	}
	for len(s.children) <= i {
		s.children = append(s.children, NewScratch())
	}
	return s.children[i]
}

// Every alloc method accepts a nil receiver and falls back to a plain make,
// so kernel code calls them unconditionally; note the fallback is zeroed
// while arena memory is dirty — callers must fully initialize either way.

// F64 returns an uninitialized []float64 of length n.
func (s *Scratch) F64(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	return s.f64.alloc(n)
}

// I32 returns an uninitialized []int32 of length n.
func (s *Scratch) I32(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	return s.i32.alloc(n)
}

// Ints returns an uninitialized []int of length n.
func (s *Scratch) Ints(n int) []int {
	if s == nil {
		return make([]int, n)
	}
	return s.ints.alloc(n)
}

// distEntries returns an uninitialized distribution buffer of length n.
func (s *Scratch) distEntries(n int) []distEntry {
	if s == nil {
		return make([]distEntry, n)
	}
	return s.dist.alloc(n)
}

// F64Rows returns an r x c matrix as r uninitialized rows carved from one
// backing block; the row-header slice is arena memory too, so a warm matrix
// costs zero allocations.
func (s *Scratch) F64Rows(r, c int) [][]float64 {
	var rows [][]float64
	if s == nil {
		rows = make([][]float64, r)
	} else {
		rows = s.f64rows.alloc(r)
	}
	flat := s.F64(r * c)
	for i := range rows {
		rows[i] = flat[i*c : (i+1)*c : (i+1)*c]
	}
	return rows
}

// IntRows returns an r x c matrix of ints, rows carved from one block.
func (s *Scratch) IntRows(r, c int) [][]int {
	var rows [][]int
	if s == nil {
		rows = make([][]int, r)
	} else {
		rows = s.introws.alloc(r)
	}
	flat := s.Ints(r * c)
	for i := range rows {
		rows[i] = flat[i*c : (i+1)*c : (i+1)*c]
	}
	return rows
}

// arena is a bump allocator over a list of doubling blocks. alloc never
// copies and never zeroes; reset rewinds to the start, keeping only the
// largest block (bounded by arenaMaxRetain) so the steady state is one
// block and zero allocations.
type arena[T any] struct {
	blocks [][]T
	cur    int // block being carved
	off    int // next free element in blocks[cur]
}

// Retention and growth bounds, in elements. A float64 arena retains at most
// 8 MB per worker; transient spikes beyond it are served and then released.
const (
	arenaMinBlock  = 1 << 10
	arenaMaxRetain = 1 << 20
)

func (a *arena[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	for {
		if a.cur < len(a.blocks) {
			if blk := a.blocks[a.cur]; a.off+n <= len(blk) {
				out := blk[a.off : a.off+n : a.off+n]
				a.off += n
				return out
			}
			a.cur++
			a.off = 0
			continue
		}
		size := arenaMinBlock
		if len(a.blocks) > 0 {
			size = 2 * len(a.blocks[len(a.blocks)-1])
		}
		if size < n {
			size = n
		}
		a.blocks = append(a.blocks, make([]T, size))
	}
}

func (a *arena[T]) reset() {
	if len(a.blocks) > 1 {
		// Blocks double, so the last is the largest: keep just it.
		a.blocks[0] = a.blocks[len(a.blocks)-1]
		a.blocks = a.blocks[:1]
	}
	if len(a.blocks) == 1 && len(a.blocks[0]) > arenaMaxRetain {
		a.blocks = a.blocks[:0]
	}
	a.cur, a.off = 0, 0
}

// resetClear is reset plus zeroing of the retained block, for arenas whose
// element type contains pointers. Between calls cur is always the last
// block (alloc appends only once cur has passed every block, and reset
// keeps just the last), so the retained block is the one being carved:
// blocks are zero when made, and [0, off) is all it has written since the
// last clear.
func (a *arena[T]) resetClear() {
	written := a.off
	a.reset()
	if len(a.blocks) == 1 {
		clear(a.blocks[0][:written])
	}
}

// scratchPool serves call paths without a dedicated worker arena (direct
// CellSolver calls, Dispatcher fallbacks): GetScratch borrows an arena,
// PutScratch resets and returns it.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// GetScratch borrows an arena from the package pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch resets s and returns it to the package pool. No buffer carved
// from s may be used after this call.
func PutScratch(s *Scratch) {
	if s == nil {
		return
	}
	s.Reset()
	scratchPool.Put(s)
}
