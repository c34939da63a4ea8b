package spg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// newSpace builds g's downset space through a fresh analysis, the way every
// solver obtains one.
func newSpace(t testing.TB, g *Graph, maxStates int) *DownsetSpace {
	t.Helper()
	ds, err := NewAnalysis(g).DownsetSpace(maxStates)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// expandEmpty opens a run on ds and expands the empty set (run index 0) at
// maxWork, returning the expansions keyed by global id.
func expandEmpty(ds *DownsetSpace, maxWork float64) ([]expansion, error) {
	run := ds.NewRun()
	defer run.Close()
	to, work, err := run.Expand(0, maxWork, func(n int) ([]int32, []float64) {
		return make([]int32, n), make([]float64, n)
	})
	if err != nil {
		return nil, err
	}
	out := make([]expansion, len(to))
	for j := range to {
		out[j] = expansion{To: run.ID(int(to[j])), ChunkWork: work[j]}
	}
	return out, nil
}

// allDownsets returns the id of every downset of the space's graph: the
// empty set plus every expansion of it at an unbounded work budget.
func allDownsets(ds *DownsetSpace) ([]int, error) {
	exps, err := expandEmpty(ds, math.Inf(1))
	if err != nil {
		return nil, err
	}
	ids := []int{ds.core.emptyID}
	for _, ex := range exps {
		ids = append(ids, ex.To)
	}
	return ids, nil
}

// members returns the stages of downset id, level by level.
func members(ds *DownsetSpace, id int) []int {
	return ds.Diff(ds.core.emptyID, id)
}

// bruteDownsets enumerates predecessor-closed subsets by brute force (for
// graphs of up to ~16 stages).
func bruteDownsets(g *Graph) int {
	n := g.N()
	count := 0
	r := NewReachability(g)
	for mask := 0; mask < 1<<uint(n); mask++ {
		ok := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if r.Reaches(j, i) && mask&(1<<uint(j)) == 0 {
					ok = false
					break
				}
			}
		}
		if ok {
			count++
		}
	}
	return count
}

func TestDownsetCountMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSPG(rng, 2+rng.Intn(10))
		all, err := allDownsets(newSpace(t, g, 1<<20))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := bruteDownsets(g)
		if len(all) != want {
			t.Logf("seed %d: enumerated %d downsets, brute force %d", seed, len(all), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDownsetMembersArePredecessorClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(11)) //nolint:gosec
	g := randomSPG(rng, 18)
	ds := newSpace(t, g, 1<<20)
	all, err := allDownsets(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range all {
		in := make([]bool, g.N())
		for _, s := range members(ds, id) {
			in[s] = true
		}
		for _, s := range members(ds, id) {
			for _, p := range g.Predecessors(s) {
				if !in[p] {
					t.Fatalf("downset %d contains %d but not its predecessor %d", id, s, p)
				}
			}
		}
	}
}

func TestDownsetChainExtremes(t *testing.T) {
	g := mustChain(t, 6)
	ds := newSpace(t, g, 1000)
	all, err := allDownsets(ds)
	if err != nil {
		t.Fatal(err)
	}
	// A chain of 6 stages has exactly 7 downsets (prefixes).
	if len(all) != 7 {
		t.Fatalf("chain downsets = %d, want 7", len(all))
	}
	// Every run starts with the empty set at run index 0 and the full set
	// at run index 1.
	run := ds.NewRun()
	defer run.Close()
	empty, full := len(members(ds, run.ID(0))), len(members(ds, run.ID(1)))
	if empty != 0 || full != 6 {
		t.Fatalf("extreme sizes wrong: %d %d", empty, full)
	}
}

func TestDownsetCout(t *testing.T) {
	// Chain 1 -2-> 2 -3-> 3: the downset {1} has Cout 2, {1,2} has Cout 3.
	g, err := Chain([]float64{1, 1, 1}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ds := newSpace(t, g, 100)
	run := ds.NewRun()
	defer run.Close()
	to, _, err := run.Expand(0, 10, func(n int) ([]int32, []float64) {
		return make([]int32, n), make([]float64, n)
	})
	if err != nil {
		t.Fatal(err)
	}
	byCout := map[int]float64{}
	for _, k := range to {
		byCout[len(members(ds, run.ID(int(k))))] = run.Cout(int(k))
	}
	if byCout[1] != 2 {
		t.Errorf("Cout({S1}) = %g, want 2", byCout[1])
	}
	if byCout[2] != 3 {
		t.Errorf("Cout({S1,S2}) = %g, want 3", byCout[2])
	}
	if byCout[3] != 0 {
		t.Errorf("Cout(full) = %g, want 0", byCout[3])
	}
}

func TestExpansionsRespectWorkBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomSPG(rng, 12)
	for i := range g.Stages {
		g.Stages[i].Weight = 1
	}
	ds := newSpace(t, g, 1<<20)
	exps, err := expandEmpty(ds, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range exps {
		if ex.ChunkWork > 2.5 {
			t.Fatalf("chunk work %g exceeds budget", ex.ChunkWork)
		}
		if n := len(members(ds, ex.To)); n > 2 {
			t.Fatalf("chunk of %d unit stages exceeds budget 2.5", n)
		}
	}
	// With unit weights and budget 2.5, chunk sizes are 1 or 2.
	if len(exps) == 0 {
		t.Fatal("no expansions found")
	}
}

func TestExpansionChunkWorkMatchesDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomSPG(rng, 14)
	ds := newSpace(t, g, 1<<20)
	exps, err := expandEmpty(ds, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range exps[:min(len(exps), 200)] {
		var w float64
		for _, s := range members(ds, ex.To) {
			w += g.Stages[s].Weight
		}
		if math.Abs(w-ex.ChunkWork) > 1e-9 {
			t.Fatalf("chunk work %g but members weigh %g", ex.ChunkWork, w)
		}
	}
}

func TestStateLimit(t *testing.T) {
	// A wide fork-join has exponentially many downsets; a tiny budget must
	// trip ErrStateLimit.
	middle := make([]float64, 14)
	vols := make([]float64, 14)
	for i := range middle {
		middle[i] = 1
		vols[i] = 1
	}
	g, err := ForkJoin(0, 0, middle, vols, vols)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := allDownsets(newSpace(t, g, 50)); err != ErrStateLimit {
		t.Fatalf("enumeration error = %v, want ErrStateLimit", err)
	}
}

// TestRunStateLimitOnChain: a run's budget counts the empty and full sets,
// so on a 6-stage chain a budget of 4 leaves room for two proper prefixes
// and the third fails.
func TestRunStateLimitOnChain(t *testing.T) {
	ds := newSpace(t, mustChain(t, 6), 4)
	if _, err := expandEmpty(ds, 2); err != nil {
		t.Fatalf("two prefixes within budget 4: %v", err)
	}
	if _, err := expandEmpty(ds, 3); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("three prefixes error = %v, want ErrStateLimit", err)
	}
}

// TestDownsetSpaceChargesExtremes: construction charges the empty and full
// sets, so a budget of 1 cannot build a space and a budget of 2 can.
func TestDownsetSpaceChargesExtremes(t *testing.T) {
	g := mustChain(t, 3)
	if _, err := NewAnalysis(g).DownsetSpace(1); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("budget 1 error = %v, want ErrStateLimit", err)
	}
	ds := newSpace(t, g, 2)
	if _, err := expandEmpty(ds, 1); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("budget 2 expansion error = %v, want ErrStateLimit", err)
	}
}

// TestWarmedReplayHitsStateLimit: a run that replays a memoized list must
// charge each listed downset, so it runs out of budget exactly where a run
// on a fresh space runs out inside the enumeration. The first run expands
// the empty set at work 2 and then {s, a} (run index 3) at work 2, which
// memoizes the latter's list; the second run first expands the empty set at
// work 3, touching downsets without a that the first run never touched, so
// replaying {s, a}'s list passes the budget the first run fitted in.
func TestWarmedReplayHitsStateLimit(t *testing.T) {
	unit := []float64{1, 1, 1}
	g, err := ForkJoin(1, 1, unit, unit, unit)
	if err != nil {
		t.Fatal(err)
	}
	buf := func(n int) ([]int32, []float64) { return make([]int32, n), make([]float64, n) }
	// expandPair expands the empty set at work w0, then run index 3 at work
	// 2, returning the run's touch count and the error that stopped it.
	expandPair := func(ds *DownsetSpace, w0 float64) (int, error) {
		run := ds.NewRun()
		defer run.Close()
		if _, _, err := run.Expand(0, w0, buf); err != nil {
			t.Fatalf("expanding the empty set at work %g: %v", w0, err)
		}
		_, _, err := run.Expand(3, 2, buf)
		return run.Count(), err
	}
	budget, err := expandPair(newSpace(t, g, 1<<20), 2)
	if err != nil {
		t.Fatal(err)
	}
	warm := newSpace(t, g, budget)
	if _, err := expandPair(warm, 2); err != nil {
		t.Fatalf("first run on budget %d: %v", budget, err)
	}
	gotCount, gotErr := expandPair(warm, 3)
	wantCount, wantErr := expandPair(newSpace(t, g, budget), 3)
	if !errors.Is(wantErr, ErrStateLimit) {
		t.Fatalf("premise: fresh run error = %v, want ErrStateLimit", wantErr)
	}
	if gotErr != wantErr || gotCount != wantCount {
		t.Fatalf("warmed run stopped with (%v, %d states), fresh (%v, %d states)", gotErr, gotCount, wantErr, wantCount)
	}
}
