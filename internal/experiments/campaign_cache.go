package experiments

import (
	"fmt"

	"spgcmp/internal/engine"
	"spgcmp/internal/streamit"
)

// NewAnalysisCache returns a cache retaining at most capacity workload
// analyses. A capacity <= 0 disables caching: Get degenerates to calling
// build.
func NewAnalysisCache(capacity int) *engine.AnalysisCache {
	return engine.NewAnalysisCache(capacity)
}

// defaultCache is the process-wide campaign cache consulted by RunStreamIt
// and RunRandom when the caller does not supply one. Its capacity covers the
// full StreamIt suite and a few random-campaign sweeps' worth of workloads
// while keeping worst-case memory modest.
var defaultCache = NewAnalysisCache(512)

// DefaultAnalysisCache returns the process-wide campaign cache.
func DefaultAnalysisCache() *engine.AnalysisCache { return defaultCache }

// streamItKey returns the cell key and the cache key of a StreamIt
// workload's base (pre-CCR-scaling) analysis; the CCR variants hang off it
// as scale-family members. For a suite application both are the engine's
// canonical FamilyKey, so campaign cells and wire ranges for the same
// application resolve one shared cache entry. An application the engine
// does not know gets a cell key that names it and an empty cache key: the
// cell bypasses the cache and fails at Build with the engine's error.
func streamItKey(a streamit.App) (key, cacheKey string) {
	if key, err := (engine.WorkloadSpec{StreamIt: a.Name}).FamilyKey(); err == nil {
		return key, key
	}
	return "invalid/streamit/" + a.Name, ""
}

// randomKey returns the cell key and the cache key of one generated random
// SPG. For parameters the engine accepts both are its canonical FamilyKey,
// in which every generation parameter participates: the same key always
// regenerates the identical graph. Parameters it rejects get a cell key
// that still names them and an empty cache key, as in streamItKey, so
// invalid cells never share a key or a cache entry.
func randomKey(n, elevation int, seed int64, ccr float64) (key, cacheKey string) {
	w := engine.WorkloadSpec{Random: &engine.RandomWorkload{N: n, Elevation: elevation, Seed: seed, CCR: ccr}}
	if key, err := w.FamilyKey(); err == nil {
		return key, key
	}
	return fmt.Sprintf("invalid/randspg/n=%d/y=%d/seed=%d/ccr=%x", n, elevation, seed, ccr), ""
}
