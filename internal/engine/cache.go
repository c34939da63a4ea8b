package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"spgcmp/internal/spg"
)

// AnalysisCache is a bounded, workload-identity-keyed cache of shared graph
// analyses — the campaign-scope (third) layer of the solver-reuse
// architecture. The first layer is the per-instance spg.Analysis attached by
// core.NewInstance; the second is the scale family sharing one structural
// analysis across a workload's CCR variants; this layer carries whole
// analyses across campaign runs, so repeated sweeps over the same suite
// (the long-running mapping-service pattern) skip workload synthesis and
// analysis entirely.
//
// Keys identify workloads, not graphs: two requests with the same key must
// deterministically build the same graph (StreamIt synthesis and randspg
// generation are both seeded). Values are retained with least-recently-used
// eviction under two independent bounds — an entry count and, when
// configured, a byte account fed by spg.Analysis.MemoryFootprint (downset
// lattices dominate, and they grow as solvers run, so footprints are
// re-estimated on every hit). Entries still being built are exempt from
// eviction, so the bounds are transiently exceeded while many keys build
// concurrently. Concurrent Gets of the same key build the value once —
// waiters share the first builder's result — and builds of different keys
// never block each other.
//
// Campaign cells admit on first use (Get): a campaign's CCR siblings and
// its re-runs come back for the same family. A single-cell request
// (GetSingle, the /v1/map path) admits on its second request instead, the
// window-and-admit idea of TinyLFU (Einziger et al., 2017) without the
// frequency sketch: a first-seen family is built into a small FIFO
// probation window of ProbationWindow entries, outside the LRU, and only a
// second request — through either method — promotes it. A one-off
// workload's answer is in the result store anyway, so its lattice is held
// only until ProbationWindow newer one-offs displace it. Window entries
// count toward both bounds, and eviction drops them before LRU entries.
//
// The nil cache and a cache with no positive bound both disable this layer:
// Get simply invokes build. Cached analyses may be consulted by several
// campaigns concurrently; every structure they hand out is either immutable
// or internally synchronized, and solvers proved bit-identical against
// cache-free runs (see the cache-equivalence tests).
type AnalysisCache struct {
	capacity int
	maxBytes int64

	hits, misses, promotions atomic.Uint64

	mu         sync.Mutex
	entries    map[string]*cacheEntry // guarded by mu
	lru        *list.List             // guarded by mu; front = most recently used; values are *cacheEntry
	totalBytes int64                  // guarded by mu; sum of LRU and window footprints, tracked when maxBytes > 0
	// probation holds first-seen single-cell builds, keyed like entries;
	// window orders them, front = newest.
	probation map[string]*cacheEntry // guarded by mu
	window    *list.List             // guarded by mu; values are *cacheEntry
}

// ProbationWindow is the probation window's size: the first-seen
// single-cell analyses kept for a second request. It never exceeds a
// positive entry capacity, which bounds window and LRU together.
const ProbationWindow = 8

type cacheEntry struct {
	key  string
	elem *list.Element // in the cache's lru, or in its window while on probation
	once sync.Once
	an   *spg.Analysis
	err  error
	// done flips after a successful build; eviction skips in-flight entries
	// so a slow build is never raced by a duplicate rebuild of its key (the
	// cache transiently exceeds its bounds instead).
	done atomic.Bool
	// bytes is the entry's last recorded footprint, included in totalBytes.
	// Mutated and read only under the owning cache's mu (the entry itself
	// has no lock to hang a guarded-by annotation on).
	bytes int64
}

// NewAnalysisCache returns a cache retaining at most capacity workload
// analyses, with no byte bound. A capacity <= 0 disables caching: Get
// degenerates to calling build.
func NewAnalysisCache(capacity int) *AnalysisCache {
	return NewAnalysisCacheBytes(capacity, 0)
}

// NewAnalysisCacheBytes returns a cache bounded by both an entry count and a
// byte account: eviction runs while either configured bound is exceeded. A
// bound <= 0 is disabled; with both disabled the cache itself is disabled.
// Bytes are spg.Analysis.MemoryFootprint estimates, refreshed on every Get of
// an entry because interned downset lattices keep growing while solvers run.
// A capacity <= 0 with a positive maxBytes bounds retained memory alone,
// leaving the entry count free.
func NewAnalysisCacheBytes(capacity int, maxBytes int64) *AnalysisCache {
	return &AnalysisCache{
		capacity:  capacity,
		maxBytes:  maxBytes,
		entries:   make(map[string]*cacheEntry),
		lru:       list.New(),
		probation: make(map[string]*cacheEntry),
		window:    list.New(),
	}
}

func (c *AnalysisCache) enabled() bool {
	return c != nil && (c.capacity > 0 || c.maxBytes > 0)
}

// windowCap is the probation window's size under the entry capacity.
func (c *AnalysisCache) windowCap() int {
	if c.capacity > 0 {
		return min(ProbationWindow, c.capacity)
	}
	return ProbationWindow
}

// Len returns the number of cached workloads, not counting the probation
// window.
func (c *AnalysisCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CacheStats is a point-in-time snapshot of the cache, as served by the
// mapping service's health endpoint. Entries covers the LRU and Probation
// the window; Bytes covers both. Promotions counts the window entries a
// second request moved into the LRU (each also counted as a hit).
type CacheStats struct {
	Entries    int    `json:"entries"`
	Capacity   int    `json:"capacity"`
	Bytes      int64  `json:"bytes"`
	MaxBytes   int64  `json:"max_bytes,omitempty"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Probation  int    `json:"probation"`
	Promotions uint64 `json:"promotions"`
}

// Stats returns the cache's current size, bounds and hit counters. Without a
// byte bound the byte total is estimated on the fly (footprints are otherwise
// only tracked when they feed eviction): the entry list is snapshotted under
// the cache lock but the footprint walk runs outside it — the walk takes
// each analysis's own fine-grained locks, and holding the cache-wide mutex
// across it would stall every concurrent Get behind a health poll. Stats is
// O(entries) and meant for health endpoints, not hot paths.
func (c *AnalysisCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	s := CacheStats{
		Entries:    len(c.entries),
		Capacity:   c.capacity,
		MaxBytes:   c.maxBytes,
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Probation:  len(c.probation),
		Promotions: c.promotions.Load(),
	}
	var walk []*spg.Analysis
	if c.maxBytes > 0 {
		s.Bytes = c.totalBytes
	} else {
		walk = make([]*spg.Analysis, 0, len(c.entries)+len(c.probation))
		for _, l := range [...]*list.List{c.lru, c.window} {
			for el := l.Front(); el != nil; el = el.Next() {
				if e := el.Value.(*cacheEntry); e.done.Load() {
					walk = append(walk, e.an)
				}
			}
		}
	}
	c.mu.Unlock()
	for _, an := range walk {
		s.Bytes += an.MemoryFootprint()
	}
	return s
}

// Get returns the analysis cached under key, building (and caching) it on
// first use; a key on probation is promoted instead of built again. A
// failed build is not retained; the next Get retries. Disabled caches — and
// the empty key, which cells use to opt a workload out of the campaign
// layer — build unconditionally.
func (c *AnalysisCache) Get(key string, build func() (*spg.Analysis, error)) (*spg.Analysis, error) {
	return c.get(key, build, false)
}

// GetSingle is Get for a single-cell request: a resident key is a normal
// Get and a key on probation is promoted into the LRU as a hit, but any
// other key is a miss built into the probation window, whose oldest
// completed entry then drops out (as do window and then LRU entries while
// a bound is exceeded). Concurrent callers of one key share its build
// either way.
func (c *AnalysisCache) GetSingle(key string, build func() (*spg.Analysis, error)) (*spg.Analysis, error) {
	return c.get(key, build, true)
}

func (c *AnalysisCache) get(key string, build func() (*spg.Analysis, error), single bool) (*spg.Analysis, error) {
	if !c.enabled() || key == "" {
		return build()
	}
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		c.hits.Add(1)
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return c.await(e, build)
	}
	e := c.probation[key]
	if e != nil {
		c.hits.Add(1)
		c.promotions.Add(1)
		c.window.Remove(e.elem)
		delete(c.probation, key)
		c.admitLocked(e)
	} else {
		c.misses.Add(1)
		e = &cacheEntry{key: key}
		if single {
			c.probateLocked(e)
		} else {
			c.admitLocked(e)
		}
	}
	c.mu.Unlock()
	return c.await(e, build)
}

// probateLocked puts e at the window front, drops the oldest completed
// entries past the window size (entries still being built stay, as in
// evictLocked), then evicts past the bounds. Callers hold c.mu.
func (c *AnalysisCache) probateLocked(e *cacheEntry) {
	e.elem = c.window.PushFront(e)
	c.probation[e.key] = e
	for el := c.window.Back(); el != nil && c.window.Len() > c.windowCap(); {
		prev := el.Prev()
		if old := el.Value.(*cacheEntry); old.done.Load() {
			c.dropLocked(old)
		}
		el = prev
	}
	c.evictLocked()
}

// admitLocked puts e at the LRU front and evicts past the bounds. Callers
// hold c.mu.
func (c *AnalysisCache) admitLocked(e *cacheEntry) {
	e.elem = c.lru.PushFront(e)
	c.entries[e.key] = e
	c.evictLocked()
}

// await builds e once (later callers wait for the first build), drops e if
// its build failed, and refreshes its footprint in the byte account while
// it is resident in the LRU or the window.
func (c *AnalysisCache) await(e *cacheEntry, build func() (*spg.Analysis, error)) (*spg.Analysis, error) {
	e.once.Do(func() {
		e.an, e.err = build()
		if e.err == nil {
			e.done.Store(true)
		}
	})
	if e.err != nil {
		c.mu.Lock()
		c.dropLocked(e)
		c.mu.Unlock()
		return e.an, e.err
	}
	if c.maxBytes > 0 {
		// Refresh the byte account outside the cache lock (the footprint walk
		// takes the analysis's own fine-grained locks), then settle under it.
		// The entry may have been evicted; its footprint then does not
		// participate.
		fp := e.an.MemoryFootprint()
		c.mu.Lock()
		if c.entries[e.key] == e || c.probation[e.key] == e {
			c.totalBytes += fp - e.bytes
			e.bytes = fp
			c.evictLocked()
		}
		c.mu.Unlock()
	}
	return e.an, e.err
}

// evictLocked drops completed entries while either bound is exceeded: the
// window's oldest first, then the LRU's least recently used. Entries still
// being built are skipped so their builders keep the single-build guarantee
// (the cache may transiently exceed its bounds while many keys build at
// once). Callers hold c.mu.
func (c *AnalysisCache) evictLocked() {
	over := func() bool {
		return (c.capacity > 0 && c.lru.Len()+c.window.Len() > c.capacity) ||
			(c.maxBytes > 0 && c.totalBytes > c.maxBytes)
	}
	for _, l := range [...]*list.List{c.window, c.lru} {
		for el := l.Back(); el != nil && over(); {
			prev := el.Prev()
			if old := el.Value.(*cacheEntry); old.done.Load() {
				c.dropLocked(old)
			}
			el = prev
		}
	}
}

// dropLocked removes e from the window or the LRU, whichever holds it, and
// takes its footprint out of the byte account. Callers hold c.mu.
func (c *AnalysisCache) dropLocked(e *cacheEntry) {
	switch {
	case c.probation[e.key] == e:
		delete(c.probation, e.key)
		c.window.Remove(e.elem)
	case c.entries[e.key] == e:
		delete(c.entries, e.key)
		c.lru.Remove(e.elem)
	default:
		return
	}
	c.totalBytes -= e.bytes
}
