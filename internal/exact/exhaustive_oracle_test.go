package exact

import (
	"context"

	"spgcmp/internal/core"
	"spgcmp/internal/mapping"
)

// The exhaustive enumeration is the oracle the branch-and-bound engine is
// diffed against; the helpers below enter either engine through the same
// validation as SolveStats.

// solveOracle runs the exhaustive enumeration, with or without the
// grid-symmetry placement reduction.
func (s *Solver) solveOracle(ctx context.Context, inst core.Instance, symmetry bool) (*core.Solution, Stats, error) {
	var st Stats
	inst, err := s.prepare(ctx, inst)
	if err != nil {
		return nil, st, err
	}
	sol, err := s.solveExhaustive(ctx, inst, &st, symmetry)
	return sol, st, err
}

// solveUnseeded is SolveStats without the DPA1D incumbent seed,
// so the search prunes against its own incumbents only.
func (s *Solver) solveUnseeded(ctx context.Context, inst core.Instance) (*core.Solution, Stats, error) {
	var st Stats
	inst, err := s.prepare(ctx, inst)
	if err != nil {
		return nil, st, err
	}
	sol, err := s.solveBnB(ctx, inst, &st, false)
	return sol, st, err
}

// solveExhaustive is the plain enumeration oracle: every DAG-partition by
// restricted growth strings, every injective placement (reduced to orbit
// representatives when symmetry is set), no lower bounds, no seeding, one
// goroutine. s.MaxPlacements is a global best-effort budget: when it runs out
// the best mapping found so far is returned, or ErrTooLarge when there is
// none. It is the baseline the branch-and-bound engine is proven
// bit-identical against.
func (s *Solver) solveExhaustive(ctx context.Context, inst core.Instance, st *Stats, symmetry bool) (*core.Solution, error) {
	g, pl, T := inst.Graph, inst.Platform, inst.Period
	n := g.N()

	var best *core.Solution
	budget := s.MaxPlacements
	st.Units, st.Workers = 1, 1

	// Cancellation: the recursions poll ctx every ctxCheckMask+1 leaves and
	// unwind through the same early returns the budget uses.
	stopped := false
	tick := 0
	checkCtx := func() bool {
		if stopped {
			return true
		}
		tick++
		if tick&ctxCheckMask == 0 && ctx.Err() != nil {
			stopped = true
		}
		return stopped
	}

	// Enumerate set partitions with restricted growth strings: part[i] is the
	// cluster of stage i, part[i] <= max(part[0..i-1]) + 1.
	part := make([]int, n)
	work := make([]float64, n)    // per-cluster work
	placeBuf := make([]int, 0, n) // cluster -> core permutation buffer
	maxCoreWork := T * pl.MaxSpeed()

	var syms [][]int
	if symmetry {
		syms = gridSymmetries(pl.P, pl.Q)
	}
	imgBuf := make([]int, n)
	qbuf := newQuotientBuf(min(n, pl.NumCores()))
	allSyms := make([]int, len(syms))
	for i := range allSyms {
		allSyms[i] = i
	}
	// Per-depth scratch rows for the surviving-symmetry lists: active sets
	// only shrink down the tree and each row is rebuilt before the recursion
	// that reads it, so the exponential placement enumeration stays
	// allocation-free.
	activeBuf := make([][]int, pl.NumCores()+1)
	for i := range activeBuf {
		activeBuf[i] = make([]int, 0, len(syms))
	}

	eval := mapping.Evaluate
	if s.General {
		eval = mapping.EvaluateGeneral
	}

	var evaluate func(k int)
	evaluate = func(k int) {
		if budget <= 0 || checkCtx() {
			return
		}
		if k > pl.NumCores() {
			return
		}
		if !s.General && !quotientAcyclic(g, part, k, qbuf) {
			return
		}
		// consider evaluates one concrete placement and keeps the best valid
		// mapping; it reports whether the placement was valid.
		consider := func(pb []int) bool {
			m := buildMapping(g, pl, T, part, pb)
			if m == nil {
				return false
			}
			res, err := eval(g, pl, m, T)
			if err != nil {
				return false
			}
			if best == nil || res.Energy < best.Result.Energy {
				best = &core.Solution{Heuristic: s.Name(), Mapping: m, Result: res}
			}
			return true
		}
		// Try every injective placement of the k clusters, pruned to the
		// lexicographically minimal representative of each symmetry orbit:
		// active lists the symmetries whose image of the current prefix still
		// equals the prefix, so only they can decide canonicity deeper down.
		used := make([]bool, pl.NumCores())
		placeBuf = placeBuf[:0]
		var place func(c int, active []int)
		place = func(c int, active []int) {
			if budget <= 0 || checkCtx() {
				return
			}
			if c == k {
				budget--
				st.Placements++
				if consider(placeBuf) {
					return
				}
				// Energy is symmetry-invariant (cores are homogeneous and XY
				// hop counts are Manhattan distances), but link-capacity
				// feasibility is not: a diagonal reflection turns XY routes
				// into YX routes, so a pruned-away orbit member can be valid
				// where the canonical one is not. Recover by evaluating the
				// rest of the orbit, only on this rare failure path.
				for _, perm := range syms {
					if budget <= 0 {
						return
					}
					budget--
					st.Placements++
					for ci, coreIdx := range placeBuf {
						imgBuf[ci] = perm[coreIdx]
					}
					consider(imgBuf[:k])
				}
				return
			}
			for coreIdx := 0; coreIdx < pl.NumCores(); coreIdx++ {
				if used[coreIdx] {
					continue
				}
				// A symmetry mapping this prefix to a lexicographically
				// smaller one proves every completion non-canonical; one
				// mapping it to a larger prefix can never overturn canonicity
				// below and drops out.
				nonCanonical := false
				child := activeBuf[c+1][:0]
				for _, si := range active {
					img := syms[si][coreIdx]
					if img < coreIdx {
						nonCanonical = true
						break
					}
					if img == coreIdx {
						child = append(child, si)
					}
				}
				if nonCanonical {
					continue
				}
				used[coreIdx] = true
				placeBuf = append(placeBuf, coreIdx)
				place(c+1, child)
				placeBuf = placeBuf[:len(placeBuf)-1]
				used[coreIdx] = false
			}
		}
		place(0, allSyms)
	}

	var gen func(i, k int)
	gen = func(i, k int) {
		if budget <= 0 || stopped {
			return
		}
		if i == n {
			evaluate(k)
			return
		}
		w := g.Stages[i].Weight
		for c := 0; c <= k && c < pl.NumCores(); c++ {
			if work[c]+w > maxCoreWork {
				continue // the cluster could never meet the period
			}
			part[i] = c
			// Save/restore instead of += / -=: float addition does not cancel
			// exactly, and a history-dependent residue in work[c] could flip a
			// marginal feasibility verdict. With restoration, work[c] is a
			// pure function of the current partition prefix — the invariant
			// the branch-and-bound engine's prefix replay relies on.
			old := work[c]
			work[c] = old + w
			nk := k
			if c == k {
				nk = k + 1
			}
			gen(i+1, nk)
			work[c] = old
		}
	}
	gen(0, 0)

	if stopped {
		return nil, ctx.Err()
	}
	st.Truncated = budget <= 0
	if budget <= 0 && best == nil {
		return nil, ErrTooLarge
	}
	if best == nil {
		return nil, core.ErrNoSolution
	}
	return best, nil
}

// ctxCheckMask throttles context polling in the enumeration hot loops: the
// check runs every mask+1 visits, keeping cancellation latency far below any
// service deadline at negligible cost.
const ctxCheckMask = 1023
