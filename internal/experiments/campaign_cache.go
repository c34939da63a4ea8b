package experiments

import (
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

// streamItKey identifies a StreamIt workload's base (pre-CCR-scaling)
// analysis; the CCR variants hang off it as scale-family members. It
// delegates to the engine's canonical FamilyKey so campaign cells and wire
// ranges for the same application resolve one shared cache entry.
func streamItKey(a streamit.App) string {
	key, err := (engine.WorkloadSpec{StreamIt: a.Name}).FamilyKey()
	if err != nil {
		// Unreachable for suite applications; fall back to a literal key so
		// a bad app still fails at Build with a real error, not here.
		return "streamit/" + a.Name
	}
	return key
}

// randomKey identifies one generated random SPG. Every generation parameter
// participates: the same key always regenerates the identical graph. Like
// streamItKey, it is the engine's canonical FamilyKey, which cannot fail
// for a random workload.
func randomKey(n, elevation int, seed int64, ccr float64) string {
	key, _ := (engine.WorkloadSpec{Random: &engine.RandomWorkload{
		N: n, Elevation: elevation, Seed: seed, CCR: ccr,
	}}).FamilyKey()
	return key
}
