package experiments

import (
	"strings"
	"testing"

	"spgcmp/internal/streamit"
)

// TestCellKeysOfInvalidWorkloads: a workload the engine rejects gets a cell
// key that names its parameters, distinct per seed, and an empty cache key,
// so no two invalid cells share a key or a cache entry; valid workloads
// keep the engine's FamilyKey as both.
func TestCellKeysOfInvalidWorkloads(t *testing.T) {
	a, b := NewRandomCell(1, 1, 7, 0, 2, 2).Spec, NewRandomCell(1, 1, 8, 0, 2, 2).Spec
	if a.Key == b.Key {
		t.Errorf("two invalid seeds share the key %q", a.Key)
	}
	for _, s := range []struct{ key, cacheKey string }{{a.Key, a.CacheKey}, {b.Key, b.CacheKey}} {
		if s.cacheKey != "" || !strings.Contains(s.key, "n=1/y=1/seed=") {
			t.Errorf("invalid random cell: key %q, cache key %q; want a key naming its parameters and no cache key", s.key, s.cacheKey)
		}
	}

	bad := NewStreamItCell(streamit.App{Name: "Nope"}, 1, 2, 2, 7).Spec
	if bad.CacheKey != "" || !strings.Contains(bad.Key, "Nope") {
		t.Errorf("unknown StreamIt app: key %q, cache key %q; want a key naming it and no cache key", bad.Key, bad.CacheKey)
	}

	valid := NewRandomCell(12, 3, 7, 1, 2, 2).Spec
	if valid.Key != "randspg/n=12/y=3/seed=7/ccr=0x1p+00/2x2" || valid.CacheKey != "randspg/n=12/y=3/seed=7/ccr=0x1p+00" {
		t.Errorf("valid random cell: key %q, cache key %q", valid.Key, valid.CacheKey)
	}
	dct, err := streamit.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	if s := NewStreamItCell(dct, 1, 2, 2, 7).Spec; !strings.HasPrefix(s.Key, s.CacheKey+"/ccr=") || !strings.HasPrefix(s.CacheKey, "streamit/DCT/") {
		t.Errorf("valid StreamIt cell: key %q, cache key %q", s.Key, s.CacheKey)
	}
}

// TestRandomConfigRejectsInvalidGraphs: a campaign whose graphs the engine
// would reject fails up front, before any cell is enumerated or solved.
func TestRandomConfigRejectsInvalidGraphs(t *testing.T) {
	ok := RandomConfig{N: 10, P: 2, Q: 2, CCR: 1, MaxElevation: 2, GraphsPerElev: 1}
	if _, err := RandomCells(ok); err != nil {
		t.Fatalf("valid config: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*RandomConfig)
		want string
	}{
		{"n < 2", func(c *RandomConfig) { c.N = 1 }, "n >= 2"},
		{"n too large", func(c *RandomConfig) { c.N = 2001 }, "n <= 2000"},
		{"elevation < 1", func(c *RandomConfig) { c.MinElevation = -1 }, "elevation >= 1"},
		{"negative ccr", func(c *RandomConfig) { c.CCR = -1 }, "negative"},
	} {
		cfg := ok
		tc.edit(&cfg)
		if _, err := RandomCells(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RandomCells error %v, want one naming %q", tc.name, err, tc.want)
		}
		if _, err := RunRandom(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RunRandom error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
