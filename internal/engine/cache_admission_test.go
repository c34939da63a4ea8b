package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// countingBuild returns a build of DCT's base analysis that counts its
// calls in n.
func countingBuild(t *testing.T, n *atomic.Int64) func() (*spg.Analysis, error) {
	t.Helper()
	a, err := streamit.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	return func() (*spg.Analysis, error) {
		n.Add(1)
		g, err := a.BaseGraph()
		if err != nil {
			return nil, err
		}
		return spg.NewAnalysis(g), nil
	}
}

func mustGet(t *testing.T, get func(string, func() (*spg.Analysis, error)) (*spg.Analysis, error), key string, build func() (*spg.Analysis, error)) *spg.Analysis {
	t.Helper()
	an, err := get(key, build)
	if err != nil || an == nil {
		t.Fatalf("get %s: %v, %v", key, an, err)
	}
	return an
}

// TestGetSingleAdmitsOnSecondRequest: a first-seen single-cell key waits on
// probation, outside Len and Keys; its second request promotes the same
// analysis into the LRU and counts a hit.
func TestGetSingleAdmitsOnSecondRequest(t *testing.T) {
	var builds atomic.Int64
	build := countingBuild(t, &builds)
	c := NewAnalysisCache(16)
	first := mustGet(t, c.GetSingle, "k", build)
	if c.Len() != 0 || len(c.Keys()) != 0 {
		t.Fatalf("first-seen key resident: Len %d, Keys %v", c.Len(), c.Keys())
	}
	if s := c.Stats(); s.Probation != 1 || s.Misses != 1 || s.Hits != 0 || s.Promotions != 0 {
		t.Fatalf("after first request: %+v", s)
	}
	if mustGet(t, c.GetSingle, "k", build) != first {
		t.Fatal("promotion rebuilt the analysis")
	}
	if c.Len() != 1 || fmt.Sprint(c.Keys()) != "[k]" {
		t.Fatalf("promoted key not resident: Len %d, Keys %v", c.Len(), c.Keys())
	}
	if s := c.Stats(); s.Probation != 0 || s.Hits != 1 || s.Promotions != 1 || builds.Load() != 1 {
		t.Fatalf("after promotion: %+v, %d builds", s, builds.Load())
	}
	// A resident key is a plain hit.
	mustGet(t, c.GetSingle, "k", build)
	if s := c.Stats(); s.Hits != 2 || s.Promotions != 1 || builds.Load() != 1 {
		t.Fatalf("resident hit: %+v, %d builds", s, builds.Load())
	}
}

// TestGetSingleWindowFIFO: the window holds ProbationWindow keys and drops
// the oldest first; a capacity below the window size caps it.
func TestGetSingleWindowFIFO(t *testing.T) {
	var builds atomic.Int64
	build := countingBuild(t, &builds)
	c := NewAnalysisCache(16)
	for i := 0; i <= ProbationWindow; i++ {
		mustGet(t, c.GetSingle, fmt.Sprint(i), build)
	}
	if s := c.Stats(); s.Probation != ProbationWindow || s.Entries != 0 {
		t.Fatalf("window after %d keys: %+v", ProbationWindow+1, s)
	}
	// Key 1 is the oldest survivor: it promotes without a build.
	mustGet(t, c.GetSingle, "1", build)
	if s := c.Stats(); s.Promotions != 1 || builds.Load() != ProbationWindow+1 {
		t.Fatalf("oldest survivor: %+v, %d builds", s, builds.Load())
	}
	// Key 0 dropped out first: asking again is a miss and a build.
	mustGet(t, c.GetSingle, "0", build)
	if s := c.Stats(); s.Promotions != 1 || s.Misses != ProbationWindow+2 || builds.Load() != ProbationWindow+2 {
		t.Fatalf("dropped key: %+v, %d builds", s, builds.Load())
	}

	small := NewAnalysisCache(3)
	for i := 0; i < 10; i++ {
		mustGet(t, small.GetSingle, fmt.Sprint(i), build)
	}
	if s := small.Stats(); s.Probation != 3 {
		t.Fatalf("window under capacity 3 holds %d", s.Probation)
	}
}

// TestGetPromotesProbation: a campaign Get of a key on probation promotes
// it instead of building a second copy.
func TestGetPromotesProbation(t *testing.T) {
	var builds atomic.Int64
	build := countingBuild(t, &builds)
	c := NewAnalysisCache(16)
	first := mustGet(t, c.GetSingle, "k", build)
	if mustGet(t, c.Get, "k", build) != first {
		t.Fatal("Get rebuilt a key on probation")
	}
	if s := c.Stats(); s.Entries != 1 || s.Probation != 0 || s.Hits != 1 || s.Promotions != 1 || builds.Load() != 1 {
		t.Fatalf("after Get: %+v, %d builds", s, builds.Load())
	}
	// Get still admits a first-seen key at once.
	mustGet(t, c.Get, "fresh", build)
	if s := c.Stats(); s.Entries != 2 || s.Probation != 0 {
		t.Fatalf("Get did not admit on first use: %+v", s)
	}
}

// TestGetSingleFailedBuildNotKept: a failed build leaves neither window nor
// LRU holding the key, and the next request builds again.
func TestGetSingleFailedBuildNotKept(t *testing.T) {
	var calls int
	boom := errors.New("boom")
	fail := func() (*spg.Analysis, error) { calls++; return nil, boom }
	c := NewAnalysisCache(16)
	for i := 0; i < 2; i++ {
		if _, err := c.GetSingle("k", fail); !errors.Is(err, boom) {
			t.Fatalf("request %d: err %v", i, err)
		}
		if s := c.Stats(); s.Probation != 0 || s.Entries != 0 || s.Promotions != 0 {
			t.Fatalf("request %d kept a failed build: %+v", i, s)
		}
	}
	if calls != 2 {
		t.Fatalf("%d builds, want 2", calls)
	}
}

// TestGetSingleConcurrentBuildsOnce: concurrent single-cell requests for
// one key share one build.
func TestGetSingleConcurrentBuildsOnce(t *testing.T) {
	var builds atomic.Int64
	inner := countingBuild(t, &builds)
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	build := func() (*spg.Analysis, error) {
		once.Do(func() { close(started) })
		<-release
		return inner()
	}
	c := NewAnalysisCache(16)
	const callers = 16
	got := make([]*spg.Analysis, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			an, err := c.GetSingle("k", build)
			if err != nil {
				t.Error(err)
			}
			got[i] = an
		}()
	}
	<-started
	time.Sleep(10 * time.Millisecond) // let the other callers join the build
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds, want 1", builds.Load())
	}
	for i, an := range got {
		if an == nil || an != got[0] {
			t.Fatalf("caller %d got a different analysis", i)
		}
	}
	if s := c.Stats(); s.Hits+s.Misses != callers || s.Entries+s.Probation != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestGetSinglePromotionEntersByteAccount: with a byte bound, a window
// entry is charged its footprint once built, and its promotion keeps it in
// the account.
func TestGetSinglePromotionEntersByteAccount(t *testing.T) {
	var builds atomic.Int64
	build := countingBuild(t, &builds)
	c := NewAnalysisCacheBytes(0, 1<<40)
	an := mustGet(t, c.GetSingle, "k", build)
	if s := c.Stats(); s.Bytes <= 0 || s.Bytes != an.MemoryFootprint() || s.Probation != 1 {
		t.Fatalf("window entry: %+v, footprint %d", s, an.MemoryFootprint())
	}
	mustGet(t, c.GetSingle, "k", build)
	if s := c.Stats(); s.Bytes != an.MemoryFootprint() || s.Entries != 1 || s.Probation != 0 {
		t.Fatalf("promoted entry: %+v, footprint %d", s, an.MemoryFootprint())
	}
}

// TestGetSingleRespectsBounds: window entries count toward both bounds.
// Under a byte bound alone, single-cell misses keep resident bytes at or
// under it; under an entry capacity, window and LRU together stay within
// it, the window's entries going first.
func TestGetSingleRespectsBounds(t *testing.T) {
	var builds atomic.Int64
	build := countingBuild(t, &builds)
	fp := mustGet(t, NewAnalysisCache(0).GetSingle, "probe", build).MemoryFootprint()

	for _, bound := range []int64{fp / 2, fp, 2*fp + fp/2} {
		c := NewAnalysisCacheBytes(0, bound)
		for i := 0; i < 2*ProbationWindow; i++ {
			mustGet(t, c.GetSingle, fmt.Sprint(i), build)
			if s := c.Stats(); s.Bytes > bound || s.Bytes != int64(s.Probation)*fp {
				t.Fatalf("bound %d after %d misses: %+v (footprint %d)", bound, i+1, s, fp)
			}
		}
		if s, want := c.Stats(), int(bound/fp); s.Probation != want {
			t.Fatalf("bound %d keeps %d window entries, want %d", bound, s.Probation, want)
		}
	}

	c := NewAnalysisCache(2)
	mustGet(t, c.Get, "lru", build)
	for i := 0; i < 3; i++ {
		mustGet(t, c.GetSingle, fmt.Sprint(i), build)
		if s := c.Stats(); s.Entries+s.Probation > 2 {
			t.Fatalf("capacity 2 after %d misses: %+v", i+1, s)
		}
	}
	// The window gave way, not the LRU; the newest miss is still on
	// probation and promotes without a build.
	if s := c.Stats(); s.Entries != 1 || s.Probation != 1 || fmt.Sprint(c.Keys()) != "[lru]" {
		t.Fatalf("capacity 2: %+v, Keys %v", s, c.Keys())
	}
	before := builds.Load()
	mustGet(t, c.GetSingle, "2", build)
	if s := c.Stats(); s.Entries != 2 || s.Probation != 0 || s.Promotions != 1 || builds.Load() != before {
		t.Fatalf("capacity 2 after promotion: %+v, %d builds", s, builds.Load()-before)
	}
}
