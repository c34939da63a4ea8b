package engine

import "sort"

// SelectPeriodDivisionsScratch exposes the protocol with a caller-owned
// arena, the form every engine cell solves through.
var SelectPeriodDivisionsScratch = selectPeriodDivisionsScratch

// Keys returns the keys of every completed cached workload outside the
// probation window, sorted — how the affinity tests inspect which workload
// families a worker's cache actually holds.
func (c *AnalysisCache) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	var keys []string
	for k, e := range c.entries {
		if e.done.Load() {
			keys = append(keys, k)
		}
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Purge drops every cached workload.
func (c *AnalysisCache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*cacheEntry)
	c.lru.Init()
	c.totalBytes = 0
	c.probation = make(map[string]*cacheEntry)
	c.window.Init()
}
