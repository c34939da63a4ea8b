package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"spgcmp/internal/core"
	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// randomSPG builds the seeded random series-parallel graphs the equivalence
// panel runs on, same generator shape as the symmetry-pruning tests.
func randomSPG(seed int64, n int, wLo, wHi, vLo, vHi float64) *spg.Graph {
	rng := rand.New(rand.NewSource(seed))
	var build func(n int) *spg.Graph
	build = func(n int) *spg.Graph {
		if n <= 2 {
			return spg.Primitive(1, 1, 1)
		}
		k := 1 + rng.Intn(n-1)
		if rng.Intn(2) == 0 {
			return spg.Series(build(k), build(n-k))
		}
		return spg.Parallel(build(k), build(n-k))
	}
	g := build(n)
	spg.RandomizeWeights(g, rng, wLo, wHi)
	spg.RandomizeVolumes(g, rng, vLo, vHi)
	return g
}

func dctGraph(t testing.TB) *spg.Graph {
	t.Helper()
	app, err := streamit.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	g, err := app.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireIdentical asserts two solve outcomes agree bit for bit: same error
// class, same energy bits, same mapping bytes.
func requireIdentical(t *testing.T, label string, wantSol *core.Solution, wantErr error, gotSol *core.Solution, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: baseline %v, got %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if !errors.Is(gotErr, core.ErrNoSolution) && !errors.Is(gotErr, ErrTooLarge) {
			t.Fatalf("%s: unexpected error class: %v", label, gotErr)
		}
		return
	}
	if math.Float64bits(wantSol.Result.Energy) != math.Float64bits(gotSol.Result.Energy) {
		t.Fatalf("%s: energy bits differ: baseline %.17g, got %.17g",
			label, wantSol.Result.Energy, gotSol.Result.Energy)
	}
	if !reflect.DeepEqual(wantSol.Mapping, gotSol.Mapping) {
		t.Fatalf("%s: mapping bytes differ:\nbaseline %+v\ngot      %+v",
			label, wantSol.Mapping, gotSol.Mapping)
	}
}

// TestBnBMatchesExhaustiveBitIdentical is the tentpole equivalence proof:
// on every panel instance the branch-and-bound engine returns the exact
// energy bits and mapping bytes of the exhaustive enumeration, across 1/2/4
// workers, seeded and unseeded, General variants included. Both engines
// reduce placements to orbit representatives; the symmetry reduction itself
// is diffed against the oracle enumerating every placement by
// TestOrbitRecoveryFailurePath and the symmetry-pruning tests.
func TestBnBMatchesExhaustiveBitIdentical(t *testing.T) {
	type inst struct {
		name string
		g    *spg.Graph
		pl   *platform.Platform
		T    float64
	}
	var panel []inst
	dct := dctGraph(t)
	var dctWork float64
	for _, st := range dct.Stages {
		dctWork += st.Weight
	}
	panel = append(panel,
		inst{"dct-2x2", dct, platform.XScale(2, 2), 0.45 * dctWork},
		inst{"dct-2x2-tight", dct, platform.XScale(2, 2), 0.3 * dctWork},
		inst{"dct-2x3", dct, platform.XScale(2, 3), 0.3 * dctWork},
	)
	for seed := int64(0); seed < 4; seed++ {
		g := randomSPG(300+seed, 7, 0.01, 0.05, 0.0001, 0.001)
		panel = append(panel, inst{name: "rand-2x2", g: g, pl: platform.XScale(2, 2), T: 0.1})
	}
	panel = append(panel,
		inst{"rand-2x3", randomSPG(310, 7, 0.01, 0.05, 0.0001, 0.001), platform.XScale(2, 3), 0.08},
		inst{"rand-1x4", randomSPG(311, 7, 0.01, 0.05, 0.0001, 0.001), platform.XScale(1, 4), 0.08},
		inst{"rand-4x1", randomSPG(311, 7, 0.01, 0.05, 0.0001, 0.001), platform.XScale(4, 1), 0.08},
		// Capacity-tight rows exercise the orbit-recovery path under bounds.
		inst{"tight-2x2", randomSPG(320, 6, 0.005, 0.02, 0.3, 0.95), platform.XScale(2, 2), 0.05},
		// 72 cores: every placement node's candidate masks span two words.
		inst{"rand-9x8", randomSPG(500, 3, 0.01, 0.05, 0.0001, 0.001), platform.XScale(9, 8), 0.06},
		inst{"rand-9x8", randomSPG(501, 3, 0.01, 0.05, 0.0001, 0.001), platform.XScale(9, 8), 0.06},
	)
	if testing.Short() {
		panel = panel[:5]
	}

	ctx := context.Background()
	for _, in := range panel {
		for _, general := range []bool{false, true} {
			base := NewSolver()
			base.General = general
			ci := core.Instance{Graph: in.g, Platform: in.pl, Period: in.T}
			wantSol, _, wantErr := base.solveOracle(ctx, ci, true)
			if wantErr != nil && !errors.Is(wantErr, core.ErrNoSolution) {
				t.Fatalf("%s general=%v: exhaustive baseline failed unexpectedly: %v", in.name, general, wantErr)
			}
			for _, workers := range []int{1, 2, 4} {
				for _, noSeed := range []bool{false, true} {
					bnb := NewSolver()
					bnb.General = general
					bnb.Workers = workers
					var gotSol *core.Solution
					var gotErr error
					if noSeed {
						gotSol, _, gotErr = bnb.solveUnseeded(ctx, ci)
					} else {
						gotSol, gotErr = bnb.Solve(ci)
					}
					label := fmt.Sprintf("%s/workers=%d", in.name, workers)
					if general {
						label += "/general"
					}
					if noSeed {
						label += "/noseed"
					}
					requireIdentical(t, label, wantSol, wantErr, gotSol, gotErr)
				}
			}
		}
	}
}

// TestBnBWorkerAndScratchInvariance pins the remaining determinism knobs:
// the worker count and an attached scratch arena change nothing about the
// result, nor about the seed energy's bits.
func TestBnBWorkerAndScratchInvariance(t *testing.T) {
	g := randomSPG(42, 8, 0.01, 0.05, 0.0005, 0.002)
	pl := platform.XScale(2, 3)
	ref, refErr := NewSolver().Solve(core.Instance{Graph: g, Platform: pl, Period: 0.08})
	if refErr != nil {
		t.Fatal(refErr)
	}
	var seedBits uint64
	for run, cfg := range []struct {
		workers int
		scratch bool
	}{{1, false}, {1, true}, {2, false}, {2, true}, {3, false}, {3, true}} {
		s := NewSolver()
		s.Workers = cfg.workers
		var sc *core.Scratch
		if cfg.scratch {
			sc = core.NewScratch()
		}
		label := fmt.Sprintf("workers %d scratch %v", cfg.workers, cfg.scratch)
		sol, st, err := s.SolveStats(context.Background(), core.Instance{Graph: g, Platform: pl, Period: 0.08, Scratch: sc})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireIdentical(t, label, ref, refErr, sol, err)
		if !st.Seeded {
			t.Fatalf("%s: no seed", label)
		}
		if bits := math.Float64bits(st.SeedEnergy); run == 0 {
			seedBits = bits
		} else if bits != seedBits {
			t.Fatalf("%s: seed energy %.17g, want %.17g", label, st.SeedEnergy, math.Float64frombits(seedBits))
		}
	}
}

// TestBnBStatsAndPruning sanity-checks the stats surface: the bounds must
// actually remove work, and the seed must be recorded.
func TestBnBStatsAndPruning(t *testing.T) {
	g := randomSPG(77, 8, 0.01, 0.05, 0.0005, 0.002)
	ci := core.Instance{Graph: g, Platform: platform.XScale(2, 3), Period: 0.08}

	_, baseStats, err := NewSolver().solveOracle(context.Background(), ci, true)
	if err != nil {
		t.Fatal(err)
	}
	bnb := NewSolver()
	_, bnbStats, err := bnb.SolveStats(context.Background(), ci)
	if err != nil {
		t.Fatal(err)
	}
	if !bnbStats.Seeded {
		t.Error("expected a DPA1D incumbent seed")
	}
	if bnbStats.PrunedPartitions == 0 && bnbStats.PrunedPlacements == 0 {
		t.Error("bounds pruned nothing")
	}
	if bnbStats.Placements >= baseStats.Placements {
		t.Errorf("B&B evaluated %d placements, exhaustive %d — bounds removed nothing",
			bnbStats.Placements, baseStats.Placements)
	}
	if bnbStats.Units < 2 {
		t.Errorf("expected a multi-unit decomposition, got %d units", bnbStats.Units)
	}
}

// TestBnBBudgetTruncation: the branch-and-bound engine never passes off an
// unproven mapping — a spent per-unit budget is ErrTooLarge, where the
// exhaustive engine keeps its best-effort answer.
func TestBnBBudgetTruncation(t *testing.T) {
	g := randomSPG(55, 8, 0.01, 0.05, 0.0001, 0.001)
	ci := core.Instance{Graph: g, Platform: platform.XScale(2, 3), Period: 0.08}

	bnb := NewSolver()
	bnb.MaxPlacements = 3
	_, st, err := bnb.solveUnseeded(context.Background(), ci)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("B&B with budget 3: want ErrTooLarge, got %v", err)
	}
	if !st.Truncated {
		t.Error("B&B truncation not reported in stats")
	}

	base := NewSolver()
	base.MaxPlacements = 50
	sol, st2, err := base.solveOracle(context.Background(), ci, true)
	if err != nil {
		t.Fatalf("exhaustive best-effort: %v", err)
	}
	if !st2.Truncated {
		t.Error("exhaustive truncation not reported in stats")
	}
	if sol == nil {
		t.Error("exhaustive best-effort returned no solution")
	}
}

// pollDeadline is a context whose Err reports DeadlineExceeded from its
// (after+1)-th call on, so a search sees its deadline pass at a fixed poll
// whatever the machine's speed.
type pollDeadline struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *pollDeadline) Err() error {
	if c.polls.Add(1) > c.after {
		return context.DeadlineExceeded
	}
	return nil
}

// TestSolveContextCancellation: both engines poll the context and return
// its error promptly. A pre-cancelled context stops either before any
// search. Mid-flight, the exhaustive engine (which runs for seconds on this
// instance) must notice a 20ms deadline; the branch-and-bound search
// finishes this instance in tens of milliseconds, so it is given a deadline
// that passes at its first poll inside the search and must stop with fewer
// placements than an uncancelled run evaluates.
func TestSolveContextCancellation(t *testing.T) {
	ci := frontier4x3Instance(t)
	s := NewSolver()
	s.General = true
	s.Workers = 1

	for _, exhaustive := range []bool{false, true} {
		solve := func(ctx context.Context) (Stats, error) {
			if exhaustive {
				_, st, err := s.solveOracle(ctx, ci, false)
				return st, err
			}
			_, st, err := s.solveUnseeded(ctx, ci)
			return st, err
		}

		// Pre-cancelled: no search at all.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := solve(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("exhaustive=%v pre-cancelled: want context.Canceled, got %v", exhaustive, err)
		}
		if _, err := s.SolveContext(ctx, ci); !errors.Is(err, context.Canceled) {
			t.Fatalf("SolveContext pre-cancelled: want context.Canceled, got %v", err)
		}

		if !exhaustive {
			// The first poll is the entry check; the second is the search's.
			full, err := solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			st, err := solve(&pollDeadline{Context: context.Background(), after: 1})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("B&B mid-flight: want DeadlineExceeded, got %v", err)
			}
			if st.Placements >= full.Placements {
				t.Fatalf("B&B mid-flight: %d placements, as many as the uncancelled run's %d", st.Placements, full.Placements)
			}
			continue
		}

		// Mid-flight: the enumeration loops must notice within the polling
		// cadence, far under the headroom asserted here.
		ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, err := solve(ctx2)
		elapsed := time.Since(start)
		cancel2()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("exhaustive mid-flight: want DeadlineExceeded, got %v (after %v)", err, elapsed)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("exhaustive: cancellation took %v", elapsed)
		}
	}
}

// frontierInstance is the 3x3 demonstration row: the bounded search proves
// optimality in 16 placements, while the exhaustive engine needs about 4.7M
// (about 9 s) to finish it.
func frontierInstance(t testing.TB) core.Instance {
	t.Helper()
	g, err := randspg.Generate(randspg.Params{N: 10, Elevation: 4, Seed: 9, CCR: 10})
	if err != nil {
		t.Fatal(err)
	}
	var w float64
	for _, st := range g.Stages {
		w += st.Weight
	}
	return core.Instance{Graph: g, Platform: platform.XScale(3, 3), Period: 0.20 * w}
}

// frontier4x3Instance is the 4x3 demonstration row: big enough that the
// exhaustive engine burns its whole 30M-placement default budget, small
// enough that the bounded search proves optimality in about 50 placements.
func frontier4x3Instance(t testing.TB) core.Instance {
	t.Helper()
	g, err := randspg.Generate(randspg.Params{N: 11, Elevation: 4, Seed: 2, CCR: 10})
	if err != nil {
		t.Fatal(err)
	}
	var w float64
	for _, st := range g.Stages {
		w += st.Weight
	}
	return core.Instance{Graph: g, Platform: platform.XScale(4, 3), Period: 0.22 * w}
}

// TestBnBGridFrontier demonstrates the new frontier: 3x3 and 4x3 instances
// solved to proven optimality inside the default budget. The exhaustive
// engine, capped at a 500k-placement slice of its default budget here to
// keep the test fast, cannot get through either instance in that slice. It
// does finish the 3x3 row given about 4.7M placements; the env-gated
// TestBnBFrontierExhaustiveDefaultBudget run in CI shows that even the full
// 30M default budget is insufficient on the 4x3 row.
func TestBnBGridFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier demonstration skipped in -short")
	}
	for _, tc := range []struct {
		name string
		ci   core.Instance
	}{
		{"3x3", frontierInstance(t)},
		{"4x3", frontier4x3Instance(t)},
	} {
		sol, st, err := NewSolver().SolveStats(context.Background(), tc.ci)
		if err != nil {
			t.Fatalf("%s: B&B failed: %v", tc.name, err)
		}
		if st.Truncated {
			t.Fatalf("%s: B&B truncated — no optimality proof", tc.name)
		}
		if st.SeedEnergy != 0 && sol.Result.Energy > st.SeedEnergy*(1+1e-9) {
			t.Fatalf("%s: optimum %.17g worse than its own seed %.17g", tc.name, sol.Result.Energy, st.SeedEnergy)
		}
		// The exhaustive engine truncates a 500k-placement slice without
		// reaching the optimum's neighbourhood being provably explored.
		base := NewSolver()
		base.MaxPlacements = 500_000
		bSol, bSt, bErr := base.solveOracle(context.Background(), tc.ci, true)
		if bErr == nil {
			if !bSt.Truncated {
				t.Fatalf("%s: exhaustive finished a 500k slice — instance too easy for the frontier claim", tc.name)
			}
			if bSol.Result.Energy < sol.Result.Energy*(1-1e-9) {
				t.Fatalf("%s: exhaustive best-effort %.17g beats the proven optimum %.17g",
					tc.name, bSol.Result.Energy, sol.Result.Energy)
			}
		}
		t.Logf("%s: optimum %.6g J, %d placements evaluated (%d units, pruned %d partition / %d placement nodes), seed %.6g J",
			tc.name, sol.Result.Energy, st.Placements, st.Units, st.PrunedPartitions, st.PrunedPlacements, st.SeedEnergy)
	}
}

// TestBnBFrontierExhaustiveDefaultBudget is the CI-only proof that the
// exhaustive engine cannot finish the 4x3 frontier instance inside its full
// default budget (30M placements), which branch-and-bound proves in about
// 50. It runs for about a minute, so it is gated on SPGCMP_EXACT_FRONTIER=1
// and exercised by the bench-exact job.
func TestBnBFrontierExhaustiveDefaultBudget(t *testing.T) {
	if os.Getenv("SPGCMP_EXACT_FRONTIER") == "" {
		t.Skip("set SPGCMP_EXACT_FRONTIER=1 to run the default-budget exhaustive frontier proof")
	}
	ci := frontier4x3Instance(t)
	sol, st, err := NewSolver().SolveStats(context.Background(), ci)
	if err != nil || st.Truncated {
		t.Fatalf("B&B frontier solve failed: err=%v truncated=%v", err, st.Truncated)
	}
	bSol, bSt, bErr := NewSolver().solveOracle(context.Background(), ci, true)
	if bErr == nil && !bSt.Truncated {
		t.Fatalf("exhaustive finished inside the default budget — frontier claim void")
	}
	if bErr == nil && bSol.Result.Energy < sol.Result.Energy*(1-1e-9) {
		t.Fatalf("exhaustive best-effort %.17g beats the proven optimum %.17g", bSol.Result.Energy, sol.Result.Energy)
	}
	t.Logf("exhaustive: truncated=%v after %d placements; B&B proved %.6g J with %d placements",
		bSt.Truncated, bSt.Placements, sol.Result.Energy, st.Placements)
}

// TestOrbitRecoveryFailurePath pins the rare placement-symmetry corner the
// recovery loop exists for: the lexicographically canonical member of the
// winning orbit routes over a saturated link and is invalid, while a
// reflected twin fits. The sweep below provably hits that corner (the test
// fails if it stops doing so), and the symmetry-pruned solver must still
// match the oracle enumerating every placement bit for bit on every
// instance.
func TestOrbitRecoveryFailurePath(t *testing.T) {
	pl := platform.XScale(2, 2)
	syms := gridSymmetries(2, 2)
	hits := 0
	for seed := int64(0); seed < 40; seed++ {
		g := randomSPG(7000+seed, 6, 0.005, 0.02, 0.3, 0.95)
		ci := core.Instance{Graph: g, Platform: pl, Period: 0.05}

		fullSol, _, errF := NewSolver().solveOracle(context.Background(), ci, false)
		prunedSol, errP := NewSolver().Solve(ci)
		requireIdentical(t, "orbit-recovery", fullSol, errF, prunedSol, errP)
		if errF != nil {
			continue
		}

		// Reconstruct the winner's placement vector (clusters in order of
		// first appearance, as the enumeration builds them) and check
		// whether its canonical orbit representative is invalid.
		place := placementVector(fullSol.Mapping, pl)
		canonical := append([]int(nil), place...)
		for _, perm := range syms {
			img := make([]int, len(place))
			for i, c := range place {
				img[i] = perm[c]
			}
			if lexLess(img, canonical) {
				canonical = img
			}
		}
		if reflect.DeepEqual(canonical, place) {
			continue // the winner is its own canonical form; recovery not involved
		}
		cm := remapped(fullSol.Mapping, place, canonical, g, pl, ci.Period)
		if cm == nil {
			hits++ // canonical twin cannot even downgrade speeds
			continue
		}
		if _, err := mapping.Evaluate(g, pl, cm, ci.Period); err != nil {
			hits++ // canonical twin invalid: the winner was found via recovery
		}
	}
	if hits == 0 {
		t.Fatal("sweep never hit the orbit-recovery failure path; widen the panel")
	}
	t.Logf("orbit-recovery failure path hit on %d/40 instances", hits)
}

// placementVector lists the distinct core indices of m in order of first
// appearance over the stages — the placeBuf the enumeration would have built.
func placementVector(m *mapping.Mapping, pl *platform.Platform) []int {
	var place []int
	seen := make(map[int]bool)
	for _, c := range m.Alloc {
		idx := c.U*pl.Q + c.V
		if !seen[idx] {
			seen[idx] = true
			place = append(place, idx)
		}
	}
	return place
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// remapped rebuilds m with each cluster moved from place[i] to target[i],
// re-running the speed downgrade; nil when no feasible speeds exist.
func remapped(m *mapping.Mapping, place, target []int, g *spg.Graph, pl *platform.Platform, T float64) *mapping.Mapping {
	to := make(map[int]int, len(place))
	for i := range place {
		to[place[i]] = target[i]
	}
	nm := mapping.New(g.N(), pl)
	for i, c := range m.Alloc {
		idx := to[c.U*pl.Q+c.V]
		nm.Alloc[i] = platform.Core{U: idx / pl.Q, V: idx % pl.Q}
	}
	if !nm.DowngradeSpeeds(g, pl, T) {
		return nil
	}
	return nm
}
