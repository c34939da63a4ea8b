// Package exact provides an optimality baseline for MinEnergy(T) on small
// instances, playing the role of the Section 4.4 integer linear program that
// the paper solved with CPLEX (on platforms up to 2x2). Two artifacts are
// provided: a branch-and-bound solver over DAG-partitions, placements and
// speeds (bnb.go) with admissible energy lower bounds, heuristic incumbent
// seeding and parallel subtree search; and an emitter that writes the paper's
// exact ILP in CPLEX LP format (ilp.go) for any external solver. A plain
// exhaustive enumeration of the same space is kept in the tests, as the
// oracle the search is proven bit-identical against.
package exact

import (
	"context"
	"errors"
	"fmt"

	"spgcmp/internal/core"
)

// ErrTooLarge is returned when the instance exceeds the search budget: more
// stages than MaxStages, or a search unit that spent its MaxPlacements
// placements before the optimum was proven (the paper's ILP hit the same
// wall beyond 2x2 CMPs).
var ErrTooLarge = errors.New("exact: instance exceeds the search budget")

// Solver finds the minimum-energy valid mapping among every DAG-partition of
// the SPG (set partitions with an acyclic cluster quotient), every injective
// placement of the clusters onto cores, and the slowest feasible speed per
// core; communications follow XY routing. The search is branch-and-bound
// (bnb.go): it prunes on admissible energy lower bounds, seeds its incumbent
// from the cheap heuristics, and fans partition prefixes across a worker
// pool; it returns results bit-identical to the exhaustive enumeration at
// any worker count.
type Solver struct {
	// MaxStages bounds the graph size (Bell numbers grow fast).
	MaxStages int
	// MaxPlacements bounds the number of complete (partition, placement)
	// pairs evaluated in each search unit. When any unit runs out the solve
	// returns ErrTooLarge, so it never passes off an unproven mapping as
	// optimal.
	MaxPlacements int
	// General drops the DAG-partition rule and searches over arbitrary
	// partitions (cyclic cluster quotients allowed), implementing the
	// paper's future-work comparison between general and DAG-partition
	// mappings. General solutions assume software-pipelined execution.
	General bool
	// Workers is the branch-and-bound worker-pool size, and the number of
	// seeding heuristics run at once; 0 uses GOMAXPROCS. Results are
	// bit-identical at any setting.
	Workers int
	// Seed drives the Random heuristic inside the seeding pass (0 means 1).
	// It affects pruning strength only, never the result.
	Seed int64
}

// NewSolver returns a solver sized for the paper's exact experiments
// (n <= 10, 2x2 grids) and the grid frontier the bounds unlock (3x3, 4x3).
func NewSolver() *Solver {
	return &Solver{MaxStages: 12, MaxPlacements: 30_000_000}
}

// Name implements core.Heuristic.
func (s *Solver) Name() string {
	if s.General {
		return "Exact-General"
	}
	return "Exact"
}

// Stats reports how a solve went: how much of the search tree was evaluated,
// how much the bounds removed, and whether the budget truncated anything.
type Stats struct {
	// Placements counts the complete placements evaluated, orbit-recovery
	// members included — the budget unit.
	Placements int64
	// PrunedPartitions counts partition-tree nodes cut by the partition-side
	// lower bound (each cuts its whole subtree).
	PrunedPartitions int64
	// PrunedPlacements counts placement-tree nodes cut by the prefix energy
	// bound.
	PrunedPlacements int64
	// Units and Workers describe the parallel decomposition.
	Units, Workers int
	// Seeded reports whether a heuristic incumbent was installed; SeedEnergy
	// is its energy.
	Seeded     bool
	SeedEnergy float64
	// Truncated reports that the placement budget was exhausted somewhere.
	Truncated bool
}

// Solve implements core.Heuristic. It is the compatibility shim over
// SolveContext for interface callers that have no deadline to propagate.
func (s *Solver) Solve(inst core.Instance) (*core.Solution, error) {
	//spglint:ignore ctxflow core.Heuristic compatibility shim; deadline-aware callers use SolveContext
	return s.SolveContext(context.Background(), inst)
}

// SolveContext is Solve with cancellation: the enumeration loops poll ctx
// periodically and the search returns ctx's error as soon as it fires, so
// service deadlines propagate into the exact path.
func (s *Solver) SolveContext(ctx context.Context, inst core.Instance) (*core.Solution, error) {
	sol, _, err := s.SolveStats(ctx, inst)
	return sol, err
}

// SolveStats is SolveContext, additionally reporting search statistics.
func (s *Solver) SolveStats(ctx context.Context, inst core.Instance) (*core.Solution, Stats, error) {
	var st Stats
	inst, err := s.prepare(ctx, inst)
	if err != nil {
		return nil, st, err
	}
	sol, err := s.solveBnB(ctx, inst, &st, true)
	return sol, st, err
}

// prepare validates inst against the solver's limits and returns it with an
// analysis attached. It reuses the caller's analysis cache when one is
// attached (a period sweep built with core.NewInstance/WithPeriod then
// validates the graph only once across the sweep); otherwise it attaches a
// private one for this call.
func (s *Solver) prepare(ctx context.Context, inst core.Instance) (core.Instance, error) {
	inst = inst.Analyzed()
	if err := inst.Validate(); err != nil {
		return inst, err
	}
	if n := inst.Graph.N(); n > s.MaxStages {
		return inst, fmt.Errorf("%w: %d stages > %d", ErrTooLarge, n, s.MaxStages)
	}
	return inst, ctx.Err()
}

var _ core.Heuristic = (*Solver)(nil)
