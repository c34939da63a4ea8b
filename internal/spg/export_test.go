package spg

import "math"

// Test hooks for the external (package spg_test) suites, which import
// workload generators that themselves import spg.

// ReferenceExpand is Run.Expand driven by referenceExpansionsLocked, the
// re-hashing enumeration the covering-edge walk replaced, writing into
// fresh slices. A space must be driven by one enumerator only: both memoize
// into the same per-state entries.
func (r *Run) ReferenceExpand(k int, maxWork float64) ([]int32, []float64, error) {
	c := r.core
	c.mu.Lock()
	entry, err := c.referenceExpansionsLocked(r, r.ids[k], maxWork)
	c.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	var to []int32
	var work []float64
	err = r.replay(entry, maxWork, func(ex expansion) {
		to = append(to, r.indexOf[ex.To])
		work = append(work, ex.ChunkWork)
	})
	if err != nil {
		return nil, nil, err
	}
	return to, work, nil
}

// InternedCount returns the number of downsets interned in the space's
// lattice so far, by every run together.
func (ds *DownsetSpace) InternedCount() int {
	ds.core.mu.Lock()
	defer ds.core.mu.Unlock()
	return len(ds.core.size)
}

// CountsOf returns a copy of downset id's per-level count vector: the
// identity under which it was interned.
func (ds *DownsetSpace) CountsOf(id int) []uint8 {
	ds.core.mu.Lock()
	defer ds.core.mu.Unlock()
	return append([]uint8(nil), ds.core.countsOf(id)...)
}

// SetEpoch overwrites the cursor's epoch counter without touching its
// stamps, so a test can put the counter at its wrap point.
func (r *Run) SetEpoch(e int32) { r.epoch = e }

// SetDFSEpoch overwrites the enumeration stamp counter of the space's core
// without touching its stamps.
func (ds *DownsetSpace) SetDFSEpoch(e int32) {
	ds.core.mu.Lock()
	defer ds.core.mu.Unlock()
	ds.core.dfsEpoch = e
}

// referenceExpansionsLocked is ensureExpansionsLocked as it was before the
// covering-edge table: every step of the DFS checks predecessors, hashes the
// successor's count vector and probes the intern table, including steps an
// earlier enumeration already resolved. It is kept as the oracle the table
// walk must reproduce exactly — ids, intern order, touch order, the
// ErrStateLimit point and every list. Like the table walk it stops at its
// first failure (see ensureExpansionsLocked for why).
func (c *downsetCore) referenceExpansionsLocked(r *Run, id int, maxWork float64) (expEntry, error) {
	if e := c.exp[id]; e.valid && e.maxWork >= maxWork {
		return e, r.touch(id)
	}
	if err := r.touch(id); err != nil {
		return expEntry{}, err
	}
	counts := make([]uint8, c.stride)
	copy(counts, c.countsOf(id))
	if c.dfsEpoch == math.MaxInt32 {
		clear(c.dfsSeen)
		c.dfsEpoch = 0
	}
	c.dfsEpoch++
	c.dfsSeen[id] = c.dfsEpoch
	var res []expansion
	var err error
	var dfs func(work float64)
	dfs = func(work float64) {
		if err != nil {
			return
		}
		for y := range counts {
			p := int(counts[y])
			if p >= len(c.levels[y]) {
				continue
			}
			s := c.levels[y][p]
			w := work + c.weights[y][p]
			if w > maxWork {
				continue
			}
			if !c.predsIncluded(counts, s) {
				continue
			}
			counts[y]++
			to, ok := c.lookup(counts)
			if !ok || c.dfsSeen[to] != c.dfsEpoch {
				if ok {
					err = r.touch(to)
				} else {
					to, err = c.intern(r, counts)
				}
				if err != nil {
					counts[y]--
					return
				}
				c.dfsSeen[to] = c.dfsEpoch
				res = append(res, expansion{To: to, ChunkWork: w})
				dfs(w)
				if err != nil {
					counts[y]--
					return
				}
			}
			counts[y]--
		}
	}
	dfs(0)
	if err != nil {
		return expEntry{}, err
	}
	e := newExpEntry(maxWork, res)
	c.exp[id] = e
	return e, nil
}
