package spg

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrStateLimit is returned when enumerating the admissible subgraphs of an
// SPG would exceed the configured state budget. The paper's DPA1D heuristic
// exhibits exactly this failure mode on graphs of large elevation ("there are
// too many possible splits to explore", Section 6.2.1); callers treat it as a
// heuristic failure.
var ErrStateLimit = errors.New("spg: admissible-subgraph state limit exceeded")

// DownsetSpace enumerates the admissible subgraphs of an SPG as defined in
// the proof of Theorem 1: a subgraph is admissible if it can be obtained from
// the full graph by repeatedly deleting a stage without successors. These are
// exactly the predecessor-closed stage sets (downsets, or order ideals) of
// the dependence partial order.
//
// Because stages of equal elevation are pairwise comparable in an SPG, a
// downset is uniquely identified by how many stages of each elevation level
// it contains, which bounds the number of downsets by n^y_max (the bound used
// in the paper's complexity analysis). Downsets are interned lazily and
// addressed by dense integer ids.
//
// A DownsetSpace is a view over a shared structural core. The core holds
// everything that depends only on the graph's shape and stage weights — the
// interned states and the expansion enumerations (chunk works are weight
// sums) — and is shared across every volume scale of a graph family: the CCR
// variants of a workload enumerate one lattice. The view owns the
// volume-dependent outgoing-cut cache (Cout), recomputed per scale from its
// own graph with the same arithmetic a fresh space would use, so scaled
// views answer bit-identically to freshly built spaces.
//
// A space may be reused across several solver runs (Analysis.DownsetSpace
// hands the same space to every DPA1D run on a workload): interned states
// persist, while the state budget is accounted per run. A solver opens its
// own Run cursor (NewRun), which charges the budget for the distinct
// downsets that run touches, so a warmed space fails (or succeeds) exactly
// where a freshly built one would, regardless of how many states earlier
// runs left behind. Cursors are independent, so runs on one space — or on
// sibling views of one family lattice — proceed concurrently; they share
// only the interning and expansion memo, which the core's mutex guards, and
// replay cached enumerations outside it (Run.Expand writes each run's
// expansions straight into caller-supplied buffers, never copying the
// memo). Run cursors are the only budget accounting: every enumeration is
// charged to the run that asked for it.
//
// All methods are safe for concurrent use; a Run belongs to one goroutine.
type DownsetSpace struct {
	core *downsetCore
	g    *Graph // this scale's graph: volumes for Cout

	// coutCache memoizes, per downset id, the aggregated volume of the edges
	// leaving the downset under this scale's volumes (negative = uncomputed).
	// Guarded by cutMu: cut sums never wait on another run's interning.
	cutMu     sync.Mutex
	coutCache []float64
}

// downsetCore is the scale-independent half of a DownsetSpace: interning
// and expansion enumeration. Run accounting lives in Run cursors, so views
// sharing a core run concurrently; Run.Expand replays the enumerations
// memoized here.
//
// States live in flat arenas addressed by id so the enumeration inner loop
// touches no per-state allocations and no hashed containers: the per-level
// count vectors sit back to back in one []uint8 (stride bytes each), the
// stage-membership bitsets in one []uint64 (words words each), the covering
// edges in one []int32 (stride slots each), and interning goes through an
// open-addressed table that probes the counts arena directly instead of
// materializing string keys. Ids are int32 throughout (the intern table's
// width), which newDownsetCore's budget check and intern's id cap enforce.
type downsetCore struct {
	levels     [][]int     // stages per elevation level, in chain (x) order
	weights    [][]float64 // stage weights, laid out like levels (shared by the family)
	levelOf    []int       // stage -> level index (y-1)
	posInLevel []int       // stage -> position within its level chain
	preds      [][]int     // stage -> distinct predecessors

	mu     sync.Mutex
	stride int     // bytes per state in counts: one per elevation level
	words  int     // uint64 words per state in bits: (n+63)/64
	counts []uint8 // flat id-indexed per-level inclusion counts (stride each)
	bits   []uint64
	size   []int32 // id -> number of included stages

	// succ caches the lattice's covering edges: succ[id*stride+y] is the
	// downset one stage up from id at level y, succUnknown until a DFS
	// first steps there, or succBlocked when level y is full in id or its
	// next stage has a predecessor outside id. Edges depend only on the
	// graph's structure, so once resolved they hold for every budget, run
	// and volume scale: a repeat step is one load instead of a hash probe.
	succ []int32

	// published is the bits arena, resliced to its capacity and replaced
	// whenever interning reallocates it, for readers that hold no lock
	// (Cout). A reader only asks for ids it obtained under mu, after their
	// bits were written; interned bits never change, and later interning
	// writes only to other words of the arena or to a new one, so the read
	// is ordered and race-free.
	published atomic.Pointer[[]uint64]

	// table is the open-addressed intern index (FNV-1a over the count bytes,
	// linear probing, power-of-two capacity, -1 = empty slot): it replaces
	// the old map[string]int and its per-lookup key materialization.
	table []int32

	// idle holds closed cursors for reuse, so a run's id-indexed tables are
	// recycled rather than reallocated per Solve. Guarded by idleMu, so
	// opening a run never waits on another run's interning.
	idleMu sync.Mutex
	idle   []*Run

	// exp memoizes enumerations per source downset (id-indexed; valid marks
	// computed entries), tagged with the work budget they were computed at. A
	// query at a smaller budget is served by filtering: pruning only removes
	// chunks heavier than the budget (every path to a light chunk has light
	// prefixes), so the smaller-budget DFS tree is a prefix-closed subtree of
	// the larger one and the filtered list preserves both membership and
	// order. SelectPeriod descends from the largest period, so an
	// enumeration per downset serves every later period — except that it
	// solves DPA1D only where the cheaper heuristics fail, so DPA1D may
	// first enumerate at the failing, tighter period and then once more at
	// the larger budget of the period the protocol returns. That second
	// enumeration now happens only when the failing period's run did not
	// exhaust the state budget: a budget failure replays at every looser
	// period (core's DPA1D verdicts), and its space is evicted anyway. Each
	// list is packed at its exact length out of dfsBuf, the DFS's reused
	// working buffer.
	exp    []expEntry
	dfsBuf []expansion

	// dfsSeen deduplicates states within one expansion DFS (stamped with
	// dfsEpoch, so clearing between enumerations is a counter bump, not a
	// sweep). It replaces the per-DFS map[string]bool.
	dfsSeen  []int32
	dfsEpoch int32

	maxStates int
	// capacity is the number of states the core reserves room for once it
	// interns state id smallLattice (0: grown on demand); reserved records
	// that it has, for NewRun, which sizes new cursors to match.
	capacity int
	reserved atomic.Bool
	emptyID  int
	fullID   int
}

type expEntry struct {
	maxWork float64
	// packed holds the n expansions in one pointer-free allocation of 12
	// bytes each: n words of chunk-work bits, then the n superset ids as
	// int32s, two to a word.
	packed []uint64
	n      int32
	valid  bool
}

// newExpEntry packs an enumeration at its exact length.
func newExpEntry(maxWork float64, exps []expansion) expEntry {
	n := len(exps)
	packed := make([]uint64, n+(n+1)/2)
	for j, ex := range exps {
		packed[j] = math.Float64bits(ex.ChunkWork)
		packed[n+j/2] |= uint64(uint32(ex.To)) << (32 * (j & 1))
	}
	return expEntry{maxWork: maxWork, packed: packed, n: int32(n), valid: true}
}

// at unpacks expansion j.
func (e *expEntry) at(j int) expansion {
	to := int32(e.packed[int(e.n)+j/2] >> (32 * (j & 1)))
	return expansion{To: int(to), ChunkWork: math.Float64frombits(e.packed[j])}
}

// Covering-edge sentinels in downsetCore.succ.
const (
	succUnknown int32 = -1
	succBlocked int32 = -2
)

// normalizeStateBudget maps the "use the default cap" sentinel to its value;
// every consumer of a state budget (space construction, the Analysis memo
// key) must agree on it so equal budgets share one space.
func normalizeStateBudget(maxStates int) int {
	if maxStates <= 0 {
		return 1 << 20
	}
	return maxStates
}

// expansion describes one admissible superset reachable from a downset: the
// added chunk is exactly the stage set that a single additional processor of
// the uni-directional uni-line CMP would execute.
type expansion struct {
	To        int     // id of the superset downset
	ChunkWork float64 // total weight of the added stages
}

// newDownsetCore prepares downset enumeration for g over its elevation
// levels (Analysis passes its memoized copy; the core only reads them).
// maxStates caps the number of distinct downsets a run may touch;
// enumeration beyond the cap fails with ErrStateLimit. capacity, when
// positive, is the number of states the core reserves room for once the
// lattice proves large (see reserve); it changes no id, order or answer.
func newDownsetCore(g *Graph, levels [][]int, maxStates, capacity int) (*downsetCore, error) {
	maxStates = normalizeStateBudget(maxStates)
	if maxStates > math.MaxInt32 {
		return nil, fmt.Errorf("spg: state budget %d exceeds the int32 id range", maxStates)
	}
	for _, lv := range levels {
		if len(lv) > 255 {
			return nil, fmt.Errorf("spg: elevation level with %d stages exceeds uint8 count encoding", len(lv))
		}
	}
	n := g.N()
	c := &downsetCore{
		levels:     levels,
		levelOf:    make([]int, n),
		posInLevel: make([]int, n),
		preds:      make([][]int, n),
		stride:     len(levels),
		words:      (n + 63) / 64,
		table:      newInternTable(1 << 8),
		maxStates:  maxStates,
		capacity:   capacity,
	}
	c.weights = make([][]float64, len(levels))
	for y, lv := range levels {
		c.weights[y] = make([]float64, len(lv))
		for p, s := range lv {
			c.levelOf[s] = y
			c.posInLevel[s] = p
			c.weights[y][p] = g.Stages[s].Weight
		}
	}
	for i := 0; i < n; i++ {
		c.preds[i] = g.Predecessors(i)
	}
	// The empty and full sets are charged to a construction run, as every
	// Run's begin charges them again: a budget too small for the two fails
	// here.
	boot := &Run{core: c, epoch: 1}
	empty := make([]uint8, len(levels))
	var err error
	c.emptyID, err = c.visit(boot, empty)
	if err != nil {
		return nil, err
	}
	full := make([]uint8, len(levels))
	for y, lv := range levels {
		full[y] = uint8(len(lv))
	}
	c.fullID, err = c.visit(boot, full)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// viewFor binds the core to one volume scale. The view starts with an empty
// cut cache; the interned lattice is the core's.
func (c *downsetCore) viewFor(g *Graph) *DownsetSpace {
	return &DownsetSpace{core: c, g: g}
}

// Run is one solver run's budget cursor over a space: it charges the state
// budget for every distinct downset the run touches (the empty and full sets
// count, as they do for a freshly constructed space) and gives each touched
// downset a dense run index — its position in touch order, empty = 0,
// full = 1. Because touches happen in the same order whether the space is
// fresh or warmed, run indices are history-independent: the DPA1D dynamic
// program uses them as state keys so that its tables, iteration order and
// floating-point tie-breaking are identical either way — and sized by this
// run's states, not by whatever earlier runs left interned.
//
// A Run is owned by one goroutine; runs never share accounting, so a space
// shared across periods, goroutines or the volume scales of a graph family
// behaves exactly like a per-run space for each of them.
type Run struct {
	core *downsetCore
	ds   *DownsetSpace // the view NewRun was called on

	epoch   int32
	ids     []int   // run index -> id, in touch order
	seen    []int32 // id -> epoch that last touched it
	indexOf []int32 // id -> run index (valid only when seen[id] == epoch)
}

// begin restarts the cursor: a new epoch with only the empty and full sets
// touched. When the epoch counter would wrap, the stamps are cleared and
// numbering restarts, so no stale stamp can match a later epoch.
func (r *Run) begin() {
	c := r.core
	if r.epoch == math.MaxInt32 {
		clear(r.seen)
		r.epoch = 0
	}
	r.epoch++
	r.ids = r.ids[:0]
	// The constructor charges the empty and full sets; mirror that here so
	// every run's accounting matches a fresh space's.
	_ = r.touch(c.emptyID)
	_ = r.touch(c.fullID)
}

// touch records that the run uses downset id, charging the budget and
// assigning the run index on the first touch.
func (r *Run) touch(id int) error {
	if id >= len(r.seen) {
		grow := id + 1 - len(r.seen)
		r.seen = append(r.seen, make([]int32, grow)...) // 0 predates every epoch
		r.indexOf = append(r.indexOf, make([]int32, grow)...)
	}
	if r.seen[id] == r.epoch {
		return nil
	}
	if len(r.ids) >= r.core.maxStates {
		return ErrStateLimit
	}
	r.seen[id] = r.epoch
	r.indexOf[id] = int32(len(r.ids))
	r.ids = append(r.ids, id)
	return nil
}

// NewRun opens a run on the space: it may touch up to maxStates distinct
// downsets. Solvers open one per Solve and Close it when done.
func (ds *DownsetSpace) NewRun() *Run {
	c := ds.core
	c.idleMu.Lock()
	var r *Run
	if n := len(c.idle); n > 0 {
		r, c.idle = c.idle[n-1], c.idle[:n-1]
	} else if c.reserved.Load() {
		r = &Run{core: c, ids: make([]int, 0, c.capacity), seen: make([]int32, c.capacity), indexOf: make([]int32, c.capacity)}
	} else {
		r = &Run{core: c}
	}
	c.idleMu.Unlock()
	r.ds = ds
	r.begin()
	return r
}

// Close returns the cursor for reuse by a later run; r must not be used
// afterwards.
func (r *Run) Close() {
	c := r.core
	r.ds = nil
	c.idleMu.Lock()
	c.idle = append(c.idle, r)
	c.idleMu.Unlock()
}

// Count returns the number of distinct downsets the run has touched.
func (r *Run) Count() int { return len(r.ids) }

// ID returns the global id of the downset with run index k.
func (r *Run) ID(k int) int { return r.ids[k] }

// Cout is DownsetSpace.Cout keyed by the run index of the downset, under the
// volumes of the view the run was opened on.
func (r *Run) Cout(k int) float64 { return r.ds.Cout(r.ids[k]) }

// Expand enumerates every downset obtainable from the downset with run
// index k by adding stages whose total weight does not exceed maxWork (at
// least one stage is added), charging the run's budget for each in
// enumeration order. The lists are replayed into the caller's memory:
// buf(n) must return two slices of length at least n, where n bounds the
// number of expansions; and Expand returns their prefixes filled in
// enumeration order with each superset's run index and chunk work. This is
// the DPA1D entry
// point: run indices are dense and identical between fresh and warmed
// spaces, so the DP can key its tables by them directly, and buf lets it
// carve the lists from its scratch arena instead of the heap. The core's
// mutex is held only while the enumeration is looked up or built; the
// replay that charges this run happens outside it.
func (r *Run) Expand(k int, maxWork float64, buf func(n int) ([]int32, []float64)) ([]int32, []float64, error) {
	c := r.core
	c.mu.Lock()
	entry, err := c.ensureExpansionsLocked(r, r.ids[k], maxWork)
	c.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	to, work := buf(int(entry.n))
	n := 0
	err = r.replay(entry, maxWork, func(ex expansion) {
		// Every emitted To was just touched, so its run index is current.
		to[n], work[n] = r.indexOf[ex.To], ex.ChunkWork
		n++
	})
	if err != nil {
		return nil, nil, err
	}
	return to[:n], work[:n], nil
}

// countsOf returns downset id's per-level count vector as a window into the
// flat arena. Callers hold c.mu and must not retain or modify the slice.
func (c *downsetCore) countsOf(id int) []uint8 {
	return c.counts[id*c.stride : (id+1)*c.stride]
}

// newInternTable returns an empty open-addressed index of the given
// power-of-two capacity (every slot -1).
func newInternTable(capacity int) []int32 {
	t := make([]int32, capacity)
	for i := range t {
		t[i] = -1
	}
	return t
}

// hashCounts is FNV-1a over a count vector, the intern table's hash.
func hashCounts(counts []uint8) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range counts {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// lookup finds the id interned for counts, if any, without touching the run
// budget. Callers hold c.mu.
func (c *downsetCore) lookup(counts []uint8) (int, bool) {
	mask := uint64(len(c.table) - 1)
	for i := hashCounts(counts) & mask; ; i = (i + 1) & mask {
		t := c.table[i]
		if t < 0 {
			return -1, false
		}
		if bytes.Equal(c.countsOf(int(t)), counts) {
			return int(t), true
		}
	}
}

// growTable rebuilds the intern index at a larger power-of-two size and
// re-inserts every id (hashes are recomputed from the counts arena; ids
// never move). Callers hold c.mu.
func (c *downsetCore) growTable(size int) {
	nt := newInternTable(size)
	mask := uint64(len(nt) - 1)
	for id := 0; id < len(c.size); id++ {
		i := hashCounts(c.countsOf(id)) & mask
		for nt[i] >= 0 {
			i = (i + 1) & mask
		}
		nt[i] = int32(id)
	}
	c.table = nt
}

// intern appends a new downset to the arenas and charges run r's budget.
// The budget is checked before any state is written so a rejected downset is
// not retained; the touch below then succeeds on the same condition. The
// int32 id range is a hard cap on the lattice too: runs charge their own
// budgets, so many runs could otherwise intern past it together. Callers
// hold c.mu and have established that counts is not yet interned.
func (c *downsetCore) intern(r *Run, counts []uint8) (int, error) {
	id := len(c.size)
	if len(r.ids) >= c.maxStates || id == math.MaxInt32 {
		return -1, ErrStateLimit
	}
	if id == smallLattice && c.capacity > id {
		c.reserve(r)
	}
	// Keep the open-addressed table below 75% load.
	if (id+1)*4 > len(c.table)*3 {
		c.growTable(2 * len(c.table))
	}
	mask := uint64(len(c.table) - 1)
	i := hashCounts(counts) & mask
	for c.table[i] >= 0 {
		i = (i + 1) & mask
	}
	c.table[i] = int32(id)

	c.counts = append(c.counts, counts...)
	base, oldCap := len(c.bits), cap(c.bits)
	for w := 0; w < c.words; w++ {
		c.bits = append(c.bits, 0)
	}
	if cap(c.bits) != oldCap {
		c.publishBits()
	}
	var sz int32
	for y, cnt := range counts {
		sz += int32(cnt)
		for p := 0; p < int(cnt); p++ {
			s := c.levels[y][p]
			c.bits[base+(s>>6)] |= 1 << (uint(s) & 63)
		}
	}
	c.size = append(c.size, sz)
	for range c.stride {
		c.succ = append(c.succ, succUnknown)
	}
	c.exp = append(c.exp, expEntry{})
	c.dfsSeen = append(c.dfsSeen, 0)
	return id, r.touch(id)
}

// reserve grows the id-indexed arenas, the intern table and the tables of
// r, the run interning, to hold c.capacity states, so interning up to there
// appends without growing them again, and marks the core reserved so new
// run cursors are sized to match. It runs once, when the core interns
// state id smallLattice: a lattice that has grown that far is one a budget
// failure or a long enumeration fills, while a run that touches fewer
// states pays nothing for the reservation, nor does a core retained after
// such a run. Callers hold c.mu.
func (c *downsetCore) reserve(r *Run) {
	more := c.capacity - len(c.size)
	r.ids = slices.Grow(r.ids, c.capacity-len(r.ids))
	r.seen = append(r.seen, make([]int32, c.capacity-len(r.seen))...)
	r.indexOf = append(r.indexOf, make([]int32, c.capacity-len(r.indexOf))...)
	c.counts = slices.Grow(c.counts, more*c.stride)
	c.bits = slices.Grow(c.bits, more*c.words)
	c.publishBits()
	c.size = slices.Grow(c.size, more)
	c.succ = slices.Grow(c.succ, more*c.stride)
	c.exp = slices.Grow(c.exp, more)
	c.dfsSeen = slices.Grow(c.dfsSeen, more)
	size := len(c.table)
	for size*3 < c.capacity*4 { // below 75% load at capacity
		size *= 2
	}
	c.growTable(size)
	c.reserved.Store(true)
}

// publishBits hands the bits arena, resliced to its capacity, to lock-free
// readers (see published). Callers hold c.mu.
func (c *downsetCore) publishBits() {
	arena := c.bits[:cap(c.bits)]
	c.published.Store(&arena)
}

// visit returns the id of the downset with the given counts, interning it if
// new, and charges run r's budget (through Run.touch, the single charging
// path). Callers hold c.mu.
func (c *downsetCore) visit(r *Run, counts []uint8) (int, error) {
	if id, ok := c.lookup(counts); ok {
		return id, r.touch(id)
	}
	return c.intern(r, counts)
}

// hasStage reports whether stage s is set in one state's bitset.
func hasStage(bits []uint64, s int) bool {
	return bits[s>>6]>>(uint(s)&63)&1 != 0
}

// Diff returns the stages of downset to that are not in downset from. It is
// only meaningful when from is a subset of to, which holds for the ids of a
// run's downset and its expansions (Run.ID of the indices Run.Expand
// returns).
func (ds *DownsetSpace) Diff(from, to int) []int {
	c := ds.core
	c.mu.Lock()
	defer c.mu.Unlock()
	cf, ct := c.countsOf(from), c.countsOf(to)
	var out []int
	for y := range cf {
		for p := int(cf[y]); p < int(ct[y]); p++ {
			out = append(out, c.levels[y][p])
		}
	}
	return out
}

// Cout returns the aggregated volume of the edges leaving downset id (source
// inside, destination outside). On a uni-directional uni-line CMP this is
// exactly the load of the link separating the downset's processors from the
// rest, the quantity bounded by BW*T in Theorem 1. Values are cached per
// volume scale for the lifetime of the view, across runs; each scale's cache
// is filled by summing that scale's edge volumes in edge order — the same
// arithmetic a fresh space would use.
func (ds *DownsetSpace) Cout(id int) float64 {
	ds.cutMu.Lock()
	defer ds.cutMu.Unlock()
	for len(ds.coutCache) <= id {
		ds.coutCache = append(ds.coutCache, -1)
	}
	if v := ds.coutCache[id]; v >= 0 {
		return v
	}
	c := ds.core
	bits := (*c.published.Load())[id*c.words : (id+1)*c.words]
	var total float64
	for _, e := range ds.g.Edges {
		if hasStage(bits, e.Src) && !hasStage(bits, e.Dst) {
			total += e.Volume
		}
	}
	ds.coutCache[id] = total
	return total
}

// replay replays a cached enumeration at a (possibly smaller) work budget:
// it charges the run's budget for every fitting expansion in enumeration
// order — the exact accounting a fresh DFS would perform, which is what
// keeps warmed and fresh spaces bit-identical — and hands each one to emit.
// Entries are immutable once built, so the replay needs no lock.
func (r *Run) replay(entry expEntry, maxWork float64, emit func(expansion)) error {
	for j := range int(entry.n) {
		ex := entry.at(j)
		if ex.ChunkWork > maxWork {
			continue
		}
		if err := r.touch(ex.To); err != nil {
			return err
		}
		emit(ex)
	}
	return nil
}

// ensureExpansionsLocked returns the cached enumeration for id, running the
// depth-first enumeration at maxWork when no entry at that budget (or a
// larger one) exists. The DFS charges run r's budget for every state it
// visits — a state already interned by an earlier run is touched without
// re-interning, a genuinely new one is interned, and a state already seen by
// this DFS is skipped without a charge, exactly the accounting the old
// string-keyed walk performed. Replayed entries charge only id here, leaving
// the per-expansion touches to the caller's filter loop so the accounting
// order matches a fresh enumeration. Chunk works are stage-weight sums, so
// one enumeration serves every volume scale sharing the core. Callers hold
// c.mu and must not modify entry.packed (the cached list is returned without
// copying; every caller in this file only reads or re-filters it).
//
// The DFS walks covering edges through c.succ: only the first step through
// an edge checks predecessors and probes the intern table, at exactly the
// point the re-hashing walk did, so ids, intern order and touch order are
// those of a walk without the table. The walk stops at its first failure:
// a walk that carried on could let a later touch of an already-charged
// state overwrite the error and memoize a truncated list, after which a
// warmed space would answer differently from a fresh one.
func (c *downsetCore) ensureExpansionsLocked(r *Run, id int, maxWork float64) (expEntry, error) {
	if e := c.exp[id]; e.valid && e.maxWork >= maxWork {
		return e, r.touch(id)
	}
	if err := r.touch(id); err != nil {
		return expEntry{}, err
	}
	counts := make([]uint8, c.stride) // the current state's counts
	copy(counts, c.countsOf(id))
	if c.dfsEpoch == math.MaxInt32 {
		// Restart the stamps rather than wrap, so no stale one can match.
		clear(c.dfsSeen)
		c.dfsEpoch = 0
	}
	c.dfsEpoch++
	c.dfsSeen[id] = c.dfsEpoch
	res := c.dfsBuf[:0]
	var err error
	var dfs func(cur int, work float64)
	dfs = func(cur int, work float64) {
		// c.succ and c.dfsSeen are re-read after every intern, which may
		// reallocate them.
		edges := cur * c.stride
		for y := range counts {
			to := c.succ[edges+y]
			if to == succBlocked {
				continue
			}
			p := int(counts[y])
			if to == succUnknown && p >= len(c.levels[y]) {
				c.succ[edges+y] = succBlocked
				continue
			}
			w := work + c.weights[y][p]
			if w > maxWork {
				continue
			}
			if to == succUnknown {
				if !c.predsIncluded(counts, c.levels[y][p]) {
					c.succ[edges+y] = succBlocked
					continue
				}
				counts[y]++
				next, ok := c.lookup(counts)
				if !ok {
					next, err = c.intern(r, counts)
				}
				counts[y]--
				if err != nil {
					return
				}
				to = int32(next)
				c.succ[edges+y] = to
			}
			if c.dfsSeen[to] == c.dfsEpoch {
				continue
			}
			// A state interned just above is already charged; this touch
			// is then a no-op.
			if err = r.touch(int(to)); err != nil {
				return
			}
			c.dfsSeen[to] = c.dfsEpoch
			res = append(res, expansion{To: int(to), ChunkWork: w})
			counts[y]++
			dfs(int(to), w)
			counts[y]--
			if err != nil {
				return
			}
		}
	}
	dfs(id, 0)
	c.dfsBuf = res[:0]
	if err != nil {
		return expEntry{}, err
	}
	e := newExpEntry(maxWork, res)
	c.exp[id] = e
	return e, nil
}

func (c *downsetCore) predsIncluded(counts []uint8, s int) bool {
	for _, p := range c.preds[s] {
		if c.posInLevel[p] >= int(counts[c.levelOf[p]]) {
			return false
		}
	}
	return true
}
