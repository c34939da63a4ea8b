package spg_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// The covering-edge walk behind Run.Expand must be indistinguishable from
// the re-hashing DFS it replaced (Run.ReferenceExpand): the same lists, the
// same global intern order, the same warmed-space answers and the same
// ErrStateLimit point. These suites drive both through a DPA1D-shaped walk:
// expand run index 0, 1, 2, ... in touch order, as the DP's layers do.

type expandFunc func(run *spg.Run, k int, maxWork float64) ([]int32, []float64, error)

func tableExpand(run *spg.Run, k int, maxWork float64) ([]int32, []float64, error) {
	return run.Expand(k, maxWork, func(n int) ([]int32, []float64) {
		return make([]int32, n), make([]float64, n)
	})
}

func referenceExpand(run *spg.Run, k int, maxWork float64) ([]int32, []float64, error) {
	return run.ReferenceExpand(k, maxWork)
}

// walkResult is what one budgeted walk observes: every expanded state's
// list as (run index, chunk-work bits) pairs, the error that stopped it,
// and the run's touch count.
type walkResult struct {
	lists [][]uint64
	err   error
	count int
}

// walkRun expands run indices in touch order until maxSources states are
// expanded, the run runs out of states, or an expansion fails.
func walkRun(run *spg.Run, expand expandFunc, maxWork float64, maxSources int) walkResult {
	var res walkResult
	for k := 0; k < run.Count() && k < maxSources; k++ {
		to, work, err := expand(run, k, maxWork)
		if err != nil {
			res.err = err
			break
		}
		list := make([]uint64, 0, 2*len(to))
		for j := range to {
			list = append(list, uint64(to[j]), math.Float64bits(work[j]))
		}
		res.lists = append(res.lists, list)
	}
	res.count = run.Count()
	return res
}

func walk(ds *spg.DownsetSpace, expand expandFunc, maxWork float64, maxSources int) walkResult {
	run := ds.NewRun()
	defer run.Close()
	return walkRun(run, expand, maxWork, maxSources)
}

func sameWalk(t *testing.T, label string, got, want walkResult) {
	t.Helper()
	if got.err != want.err || got.count != want.count {
		t.Fatalf("%s: stopped with (%v, %d states), want (%v, %d states)", label, got.err, got.count, want.err, want.count)
	}
	if len(got.lists) != len(want.lists) {
		t.Fatalf("%s: expanded %d states, want %d", label, len(got.lists), len(want.lists))
	}
	for k := range got.lists {
		if !slices.Equal(got.lists[k], want.lists[k]) {
			t.Fatalf("%s: expansions of run index %d differ:\n got %v\nwant %v", label, k, got.lists[k], want.lists[k])
		}
	}
}

// sameInternOrder compares the two spaces' lattices id by id.
func sameInternOrder(t *testing.T, label string, got, want *spg.DownsetSpace) {
	t.Helper()
	if got.NumStates() != want.NumStates() {
		t.Fatalf("%s: %d states interned, want %d", label, got.NumStates(), want.NumStates())
	}
	for id := 0; id < want.NumStates(); id++ {
		if g, w := got.CountsOf(id), want.CountsOf(id); !slices.Equal(g, w) {
			t.Fatalf("%s: id %d interned as %v, want %v", label, id, g, w)
		}
	}
}

func mustSpace(t *testing.T, g *spg.Graph, maxStates int) *spg.DownsetSpace {
	t.Helper()
	ds, err := spg.NewDownsetSpace(g, maxStates)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

type equivCase struct {
	name string
	g    *spg.Graph
}

// equivCases returns seeded random SPGs (n 20-150, elevations 1-10) and the
// 12 StreamIt applications.
func equivCases(t *testing.T) []equivCase {
	t.Helper()
	var cases []equivCase
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		elev := 1 + rng.Intn(10)
		n := 20 + rng.Intn(131)
		g, err := randspg.Generate(randspg.Params{N: n, Elevation: elev, Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, equivCase{fmt.Sprintf("random/n=%d,elev=%d", n, elev), g})
	}
	for _, a := range streamit.Suite() {
		g, err := a.Graph()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, equivCase{"streamit/" + a.Name, g})
	}
	return cases
}

func totalWeight(g *spg.Graph) float64 {
	var w float64
	for _, s := range g.Stages {
		w += s.Weight
	}
	return w
}

// TestCoveringEdgeWalkMatchesReference runs the same sequence of walks — at
// descending work budgets, as the period protocol issues them, then one
// larger budget that no memoized list covers — on a space driven by the
// table walk and on one driven by the reference DFS, under a tight and a
// loose state budget. Each walk must match its counterpart and a walk on a
// freshly built reference space; after every walk both spaces must have
// interned the same states in the same order.
func TestCoveringEdgeWalkMatchesReference(t *testing.T) {
	maxSources := 60
	if testing.Short() {
		maxSources = 20
	}
	var stopped, finished int
	for _, tc := range equivCases(t) {
		total := totalWeight(tc.g)
		for _, budget := range []int{40, 3000} {
			table, ref := mustSpace(t, tc.g, budget), mustSpace(t, tc.g, budget)
			for _, frac := range []float64{0.4, 0.15, 0.05, 0.25} {
				maxWork := total * frac
				label := fmt.Sprintf("%s budget=%d maxWork=%.3g", tc.name, budget, maxWork)
				got := walk(table, tableExpand, maxWork, maxSources)
				sameWalk(t, label+" (warmed reference)", got, walk(ref, referenceExpand, maxWork, maxSources))
				sameWalk(t, label+" (fresh reference)", got, walk(mustSpace(t, tc.g, budget), referenceExpand, maxWork, maxSources))
				sameInternOrder(t, label, table, ref)
				if got.err != nil {
					if !errors.Is(got.err, spg.ErrStateLimit) {
						t.Fatalf("%s: %v", label, got.err)
					}
					stopped++
				} else {
					finished++
				}
			}
		}
	}
	// Both outcomes must be exercised, or the budget comparisons prove
	// nothing.
	if stopped == 0 || finished == 0 {
		t.Fatalf("walks: %d stopped by the state budget, %d finished; want both", stopped, finished)
	}
}

// TestCoveringEdgeWalkConcurrentSiblings: two CCR siblings enumerate their
// shared lattice at the same time, each through its own run, and each must
// see exactly what a lone run on a fresh space sees. Run it with -race.
func TestCoveringEdgeWalkConcurrentSiblings(t *testing.T) {
	g, err := randspg.Generate(randspg.Params{N: 80, Elevation: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const budget, sources = 5000, 40
	maxWork := 0.2 * totalWeight(g)
	want := walk(mustSpace(t, g, budget), referenceExpand, maxWork, sources)

	an := spg.NewAnalysis(g)
	var spaces []*spg.DownsetSpace
	for _, member := range []*spg.Analysis{an, an.ScaleToCCR(10)} {
		ds, err := member.DownsetSpace(budget)
		if err != nil {
			t.Fatal(err)
		}
		spaces = append(spaces, ds)
	}
	got := make([]walkResult, len(spaces))
	var wg sync.WaitGroup
	for i, ds := range spaces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = walk(ds, tableExpand, maxWork, sources)
		}()
	}
	wg.Wait()
	for i := range got {
		sameWalk(t, fmt.Sprintf("sibling %d", i), got[i], want)
	}
}

// TestRunEpochWrap: a cursor whose epoch counter is at its limit restarts
// the count on its next run, and stamps left by earlier epochs (here, by
// epoch 1, the first value after the restart) must not make the new run
// treat states as already touched.
func TestRunEpochWrap(t *testing.T) {
	g, err := randspg.Generate(randspg.Params{N: 40, Elevation: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const budget, sources = 2000, 30
	maxWork := 0.2 * totalWeight(g)
	want := walk(mustSpace(t, g, budget), referenceExpand, maxWork, sources)

	ds := mustSpace(t, g, budget)
	run := ds.NewRun() // epoch 1
	sameWalk(t, "first run", walkRun(run, tableExpand, maxWork, sources), want)
	run.SetEpoch(math.MaxInt32)
	run.Close()
	// NewRun hands back the cursor just closed; its begin wraps the epoch.
	sameWalk(t, "run after the epoch wrap", walk(ds, tableExpand, maxWork, sources), want)
}

// TestDFSEpochWrap: the enumeration stamp counter restarts the same way; a
// DFS that wraps it must not skip states an earlier DFS stamped.
func TestDFSEpochWrap(t *testing.T) {
	g, err := randspg.Generate(randspg.Params{N: 40, Elevation: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 2000
	maxWork := 0.2 * totalWeight(g)
	twoExpansions := func(ds *spg.DownsetSpace, expand expandFunc, wrap bool) walkResult {
		run := ds.NewRun()
		defer run.Close()
		// The empty set's DFS (the first one, stamp 1) stamps its whole
		// up-set; run index 2 is its first successor, whose up-set lies
		// inside it.
		res := walkRun(run, expand, maxWork, 1)
		if wrap {
			ds.SetDFSEpoch(math.MaxInt32)
		}
		to, work, err := expand(run, 2, maxWork)
		if err != nil {
			t.Fatal(err)
		}
		list := make([]uint64, 0, 2*len(to))
		for j := range to {
			list = append(list, uint64(to[j]), math.Float64bits(work[j]))
		}
		res.lists = append(res.lists, list)
		res.count = run.Count()
		return res
	}
	want := twoExpansions(mustSpace(t, g, budget), referenceExpand, false)
	if len(want.lists[1]) == 0 {
		t.Fatal("run index 2 has no expansions; the wrap would be untested")
	}
	sameWalk(t, "DFS after the stamp wrap", twoExpansions(mustSpace(t, g, budget), tableExpand, true), want)
}

// TestDownsetSpaceRejectsBudgetBeyondInt32: ids are int32, so a budget the
// intern table cannot address is an error, not a silent wrap.
func TestDownsetSpaceRejectsBudgetBeyondInt32(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot hold a budget beyond the int32 range")
	}
	g, err := spg.Chain([]float64{1, 1}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	beyond := int64(math.MaxInt32) + 1
	if _, err := spg.NewDownsetSpace(g, int(beyond)); err == nil {
		t.Fatal("NewDownsetSpace accepted a state budget beyond the int32 id range")
	}
	if _, err := spg.NewDownsetSpace(g, math.MaxInt32); err != nil {
		t.Fatalf("NewDownsetSpace rejected the largest int32 budget: %v", err)
	}
}
