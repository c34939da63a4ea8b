package experiments

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// TestCacheEquivalenceCCRFamily covers the full (app, CCR, period, heuristic)
// matrix of the acceptance bar: every CCR variant derived as a scale-family
// member of one base analysis must produce bit-identical energies to a
// cache-free solve of an independently synthesized GraphWithCCR graph. Under
// -short the suite shrinks to one app per regime; the full 12-app proof runs
// in the default mode.
func TestCacheEquivalenceCCRFamily(t *testing.T) {
	pl := platform.XScale(4, 4)
	shortSubset := map[string]bool{"DCT": true, "DES": true, "FMRadio": true, "Vocoder": true}
	for _, a := range streamit.Suite() {
		if testing.Short() && !shortSubset[a.Name] {
			continue
		}
		baseG, err := a.BaseGraph()
		if err != nil {
			t.Fatal(err)
		}
		base := spg.NewAnalysis(baseG)
		for _, ccr := range []float64{a.CCR, 10, 1, 0.1} {
			an := base.ScaleToCCR(ccr)
			freshG, err := a.GraphWithCCR(ccr)
			if err != nil {
				t.Fatal(err)
			}
			shared := core.Instance{Graph: an.Graph(), Platform: pl, Period: 1, Analysis: an}
			checkInstanceEquivalence(t, fmt.Sprintf("%s/ccr=%g", a.Name, ccr), shared, freshG, 42)
		}
	}
}

// referenceStreamIt reproduces a StreamIt campaign the pre-reuse way: a
// fresh graph synthesis and a fresh analysis per (app, CCR) cell, with the
// exact per-cell seeds RunStreamIt uses.
func referenceStreamIt(t *testing.T, p, q int, apps []streamit.App, seed int64) *StreamItResult {
	t.Helper()
	type variant struct {
		app   streamit.App
		label string
		ccr   float64
	}
	var variants []variant
	for _, a := range apps {
		variants = append(variants,
			variant{a, "orig", a.CCR},
			variant{a, "10", 10},
			variant{a, "1", 1},
			variant{a, "0.1", 0.1},
		)
	}
	res := &StreamItResult{P: p, Q: q, Cells: make([]StreamItCell, len(variants))}
	for i, v := range variants {
		g, err := v.app.GraphWithCCR(v.ccr)
		if err != nil {
			t.Fatal(err)
		}
		ir, _ := SelectPeriod(spg.NewAnalysis(g), platform.XScale(p, q), seed+int64(i))
		res.Cells[i] = StreamItCell{App: v.app, CCRLabel: v.label, Result: ir}
	}
	return res
}

func requireSameCampaign(t *testing.T, label string, got, want *StreamItResult) {
	t.Helper()
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("%s: %d cells, want %d", label, len(got.Cells), len(want.Cells))
	}
	for i := range got.Cells {
		gc, wc := got.Cells[i], want.Cells[i]
		if gc.App.Name != wc.App.Name || gc.CCRLabel != wc.CCRLabel {
			t.Fatalf("%s cell %d: identity (%s,%s) vs (%s,%s)", label, i, gc.App.Name, gc.CCRLabel, wc.App.Name, wc.CCRLabel)
		}
		cell := fmt.Sprintf("%s cell %s/%s", label, gc.App.Name, gc.CCRLabel)
		if math.Float64bits(gc.Result.Period) != math.Float64bits(wc.Result.Period) {
			t.Errorf("%s: period %g != %g", cell, gc.Result.Period, wc.Result.Period)
			continue
		}
		for j, o := range gc.Result.Outcomes {
			w := wc.Result.Outcomes[j]
			if o.Heuristic != w.Heuristic || o.OK != w.OK || o.ActiveCores != w.ActiveCores ||
				(o.OK && math.Float64bits(o.Energy) != math.Float64bits(w.Energy)) {
				t.Errorf("%s %s: outcome %+v != %+v", cell, o.Heuristic, o, w)
			}
		}
	}
}

// TestCampaignCacheEquivalenceStreamIt: the campaign must produce
// bit-identical results through every cache configuration — no campaign
// cache, a cold cache, a warm cache (second sweep over the same suite) —
// and all must match the pre-reuse per-cell reference.
func TestCampaignCacheEquivalenceStreamIt(t *testing.T) {
	apps := []streamit.App{}
	for _, a := range streamit.Suite() {
		if a.Name == "DCT" || a.Name == "FMRadio" || a.Name == "MPEG2-noparser" {
			apps = append(apps, a)
		}
	}
	const seed = 7
	want := referenceStreamIt(t, 4, 4, apps, seed)

	noCache, err := RunStreamItWith(4, 4, apps, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCampaign(t, "no-cache", noCache, want)

	cache := NewAnalysisCache(32)
	cold, err := RunStreamItWith(4, 4, apps, seed, cache)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCampaign(t, "cold-cache", cold, want)
	if cache.Len() != len(apps) {
		t.Errorf("cache holds %d workloads, want %d", cache.Len(), len(apps))
	}

	warm, err := RunStreamItWith(4, 4, apps, seed, cache)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCampaign(t, "warm-cache", warm, want)

	// A different grid over the same warm cache still matches its reference.
	warm6, err := RunStreamItWith(6, 6, apps, seed, cache)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCampaign(t, "warm-cache-6x6", warm6, referenceStreamIt(t, 6, 6, apps, seed))
}

// TestCampaignCacheEquivalenceRandom: same property for the random-SPG
// campaign, whose cache keys include every generation parameter.
func TestCampaignCacheEquivalenceRandom(t *testing.T) {
	cfg := RandomConfig{
		N: 30, P: 4, Q: 4, CCR: 1,
		MinElevation: 1, MaxElevation: 4, GraphsPerElev: 2, Seed: 3,
		Cache: NewAnalysisCache(0), // layer off
	}
	want, err := RunRandom(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewAnalysisCache(64)
	for _, label := range []string{"cold", "warm"} {
		cfg.Cache = cache
		got, err := RunRandom(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("%s: point count drifted", label)
		}
		for i, pt := range got.Points {
			wpt := want.Points[i]
			for name := range pt.MeanInvNorm {
				if math.Float64bits(pt.MeanInvNorm[name]) != math.Float64bits(wpt.MeanInvNorm[name]) {
					t.Errorf("%s elev %d %s: mean %.17g != %.17g",
						label, pt.Elevation, name, pt.MeanInvNorm[name], wpt.MeanInvNorm[name])
				}
				if pt.Failures[name] != wpt.Failures[name] {
					t.Errorf("%s elev %d %s: failures %d != %d",
						label, pt.Elevation, name, pt.Failures[name], wpt.Failures[name])
				}
			}
		}
	}
	if got := cache.Len(); got != 8 {
		t.Errorf("cache holds %d workloads, want 8 (4 elevations x 2 graphs)", got)
	}
}

// TestAnalysisCacheBehavior: LRU bounding, error non-retention, single-build
// under concurrency, and disabled modes.
func TestAnalysisCacheBehavior(t *testing.T) {
	mk := func() (*spg.Analysis, error) { return spg.NewAnalysis(nil), nil }

	c := NewAnalysisCache(2)
	builds := 0
	counted := func() (*spg.Analysis, error) { builds++; return mk() }
	if _, err := c.Get("a", counted); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("a", counted); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("hit rebuilt: %d builds", builds)
	}
	if _, err := c.Get("b", counted); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("a", counted); err != nil { // refresh a
		t.Fatal(err)
	}
	if _, err := c.Get("c", counted); err != nil { // evicts b (LRU)
		t.Fatal(err)
	}
	if builds != 3 {
		t.Fatalf("unexpected build count %d", builds)
	}
	if _, err := c.Get("a", counted); err != nil {
		t.Fatal(err)
	}
	if builds != 3 {
		t.Fatal("a was evicted but b should have been")
	}
	if _, err := c.Get("b", counted); err != nil {
		t.Fatal(err)
	}
	if builds != 4 {
		t.Fatal("b must have been evicted and rebuilt")
	}
	if c.Len() != 2 {
		t.Fatalf("capacity 2 cache holds %d", c.Len())
	}

	// Errors are not retained.
	fails := 0
	failing := func() (*spg.Analysis, error) { fails++; return nil, fmt.Errorf("boom %d", fails) }
	if _, err := c.Get("err", failing); err == nil {
		t.Fatal("expected error")
	}
	if _, err := c.Get("err", failing); err == nil || err.Error() != "boom 2" {
		t.Fatalf("failed build retained: %v", err)
	}

	// Disabled modes build every time.
	for _, dc := range []*engine.AnalysisCache{nil, NewAnalysisCache(0)} {
		n := 0
		for i := 0; i < 3; i++ {
			if _, err := dc.Get("x", func() (*spg.Analysis, error) { n++; return mk() }); err != nil {
				t.Fatal(err)
			}
		}
		if n != 3 {
			t.Fatalf("disabled cache built %d times, want 3", n)
		}
	}

	// Concurrent Gets of one key build once and share the result.
	cc := NewAnalysisCache(8)
	var cbuilds int
	var mu sync.Mutex
	var wg sync.WaitGroup
	results := make([]*spg.Analysis, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			an, err := cc.Get("k", func() (*spg.Analysis, error) {
				mu.Lock()
				cbuilds++
				mu.Unlock()
				return mk()
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = an
		}(i)
	}
	wg.Wait()
	if cbuilds != 1 {
		t.Fatalf("concurrent Gets built %d times", cbuilds)
	}
	for _, r := range results[1:] {
		if r != results[0] {
			t.Fatal("concurrent Gets returned different analyses")
		}
	}
}

// TestDefaultAnalysisCacheShared: RunStreamIt without an explicit cache uses
// the process-wide default, so back-to-back campaigns share workloads.
func TestDefaultAnalysisCacheShared(t *testing.T) {
	apps := []streamit.App{}
	for _, a := range streamit.Suite() {
		if a.Name == "DCT" {
			apps = append(apps, a)
		}
	}
	before := DefaultAnalysisCache().Len()
	if _, err := RunStreamIt(2, 2, apps, 1); err != nil {
		t.Fatal(err)
	}
	if DefaultAnalysisCache().Len() < before {
		t.Error("default cache shrank")
	}
	key, _ := streamItKey(apps[0])
	hit := false
	if _, err := DefaultAnalysisCache().Get(key, func() (*spg.Analysis, error) {
		hit = true // build called = miss
		return spg.NewAnalysis(nil), nil
	}); err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("campaign workload missing from the default cache")
	}
}
