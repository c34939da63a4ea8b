package engine

import (
	"container/list"
	"encoding/json"
	"sync"
	"sync/atomic"

	"spgcmp/internal/mapping"
)

// Answer is one cell outcome in the shape the mapping service answers it:
// the period protocol's verdict, the full per-heuristic result and, when
// feasible, the winning heuristic's name and placement. It carries no
// campaign-local addressing (Index, Key), so one encoding answers every
// request for the same content key; a /v1/map body is the cell's key spliced
// in front of these fields.
type Answer struct {
	Feasible bool           `json:"feasible"`
	Result   InstanceResult `json:"result"`
	Best     string         `json:"best,omitempty"`
	// Mapping is the winning heuristic's placement (the wire form of
	// mapping.Mapping): stage allocation, per-core DVFS speeds and any
	// pinned routes — the actionable half of the answer.
	Mapping *mapping.WireMapping `json:"mapping,omitempty"`
}

// AnswerFor folds one solved cell into its Answer: the first successful
// outcome at the best energy names the winner.
func AnswerFor(r CellResult) Answer {
	a := Answer{Feasible: r.Feasible, Result: r.Result}
	if !r.Feasible {
		return a
	}
	best := r.Result.BestEnergy()
	for _, o := range r.Result.Outcomes {
		if o.OK && o.Energy == best {
			a.Best = o.Heuristic
			a.Mapping = o.Mapping
			break
		}
	}
	return a
}

// StoredAnswer is an Answer in the ResultStore's form: its compact
// encoding/json encoding, immutable as a string, plus the feasible bit a
// server needs for its status line without decoding. float64s round-trip
// bit-exactly through encoding/json, so the bytes equal an encoding of the
// solve that produced them.
type StoredAnswer struct {
	JSON     string
	Feasible bool
}

// EncodeAnswer encodes AnswerFor(r). A failed cell (Err set) has no answer:
// its error is returned.
func EncodeAnswer(r CellResult) (StoredAnswer, error) {
	if r.Err != nil {
		return StoredAnswer{}, r.Err
	}
	b, err := json.Marshal(AnswerFor(r))
	if err != nil {
		return StoredAnswer{}, err
	}
	return StoredAnswer{JSON: string(b), Feasible: r.Feasible}, nil
}

// Decode rebuilds the answer's cell result, with Index 0 and an empty Key
// for the caller to stamp. Each call decodes a fresh copy.
func (a StoredAnswer) Decode() (CellResult, error) {
	var w Answer
	if err := json.Unmarshal([]byte(a.JSON), &w); err != nil {
		return CellResult{}, err
	}
	return CellResult{Feasible: w.Feasible, Result: w.Result}, nil
}

// ResultStore is a bounded, concurrency-safe, content-addressed store of
// solved cell outcomes — the dedup layer that turns a repeated request from
// a full DP solve into an O(1) lookup. Keys are canonical CellSpec content
// hashes (CellSpec.ContentKey); per-cell determinism is proven by the
// equivalence suites, so a stored outcome is safe to serve byte-identically
// in place of a re-solve.
//
// Each entry is a StoredAnswer, so a hit hands out the stored bytes without
// decoding them. Entries are retained with least-recently-used eviction under
// two independent bounds, an entry count and a byte account (the encoded
// entry sizes), mirroring the AnalysisCache; an entry larger than the whole
// byte bound is never stored. The nil store and a store with no
// positive bound are both disabled: Get always misses and Put is a no-op.
// Unlike the AnalysisCache the store does not deduplicate concurrent builds
// of one key — in-flight dedup is the service coalescer's job — so Put is a
// plain last-writer-wins insert (all writers of one key insert identical
// bytes, by determinism).
type ResultStore struct {
	capacity int
	maxBytes int64

	hits, misses, puts, evictions atomic.Uint64

	mu         sync.Mutex
	entries    map[string]*storeEntry // guarded by mu
	lru        *list.List             // guarded by mu; front = most recently used; values are *storeEntry
	totalBytes int64                  // guarded by mu; sum of encoded entry sizes
}

type storeEntry struct {
	key    string
	elem   *list.Element
	answer StoredAnswer
}

// NewResultStore returns a store retaining at most capacity outcomes and at
// most maxBytes of encoded results. A bound <= 0 is disabled; with both
// disabled the store itself is disabled (Get misses, Put no-ops).
func NewResultStore(capacity int, maxBytes int64) *ResultStore {
	return &ResultStore{
		capacity: capacity,
		maxBytes: maxBytes,
		entries:  make(map[string]*storeEntry),
		lru:      list.New(),
	}
}

// Enabled reports whether the store retains anything — how callers decide
// whether to surface its stats.
func (s *ResultStore) Enabled() bool { return s.enabled() }

func (s *ResultStore) enabled() bool {
	return s != nil && (s.capacity > 0 || s.maxBytes > 0)
}

// Len returns the number of stored outcomes.
func (s *ResultStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Get returns the answer stored under key, as stored: callers share its
// immutable bytes. A disabled store always misses without counting.
func (s *ResultStore) Get(key string) (StoredAnswer, bool) {
	if !s.enabled() || key == "" {
		return StoredAnswer{}, false
	}
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		s.mu.Unlock()
		s.misses.Add(1)
		return StoredAnswer{}, false
	}
	s.lru.MoveToFront(e.elem)
	a := e.answer
	s.mu.Unlock()
	s.hits.Add(1)
	return a, true
}

// Put stores the answer under key. Disabled stores, the empty key and the
// empty answer no-op, and so does an answer larger than the byte bound:
// storing it would evict every resident entry and then itself.
func (s *ResultStore) Put(key string, a StoredAnswer) {
	if !s.enabled() || key == "" || a.JSON == "" {
		return
	}
	size := int64(len(a.JSON))
	if s.maxBytes > 0 && size > s.maxBytes {
		return
	}
	s.puts.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		s.totalBytes += size - int64(len(e.answer.JSON))
		e.answer = a
		s.lru.MoveToFront(e.elem)
		s.evictLocked()
		return
	}
	e := &storeEntry{key: key, answer: a}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.totalBytes += size
	s.evictLocked()
}

// evictLocked drops least-recently-used entries while either configured
// bound is exceeded. Callers hold s.mu.
func (s *ResultStore) evictLocked() {
	over := func() bool {
		return (s.capacity > 0 && s.lru.Len() > s.capacity) ||
			(s.maxBytes > 0 && s.totalBytes > s.maxBytes)
	}
	for el := s.lru.Back(); el != nil && over(); {
		prev := el.Prev()
		old := el.Value.(*storeEntry)
		s.lru.Remove(el)
		delete(s.entries, old.key)
		s.totalBytes -= int64(len(old.answer.JSON))
		s.evictions.Add(1)
		el = prev
	}
}

// ResultStoreStats is a point-in-time snapshot of the store, as served by
// the mapping service's health endpoint.
type ResultStoreStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity,omitempty"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes,omitempty"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
}

// Stats returns the store's current size, bounds and traffic counters.
func (s *ResultStore) Stats() ResultStoreStats {
	if s == nil {
		return ResultStoreStats{}
	}
	s.mu.Lock()
	st := ResultStoreStats{
		Entries:  len(s.entries),
		Capacity: s.capacity,
		Bytes:    s.totalBytes,
		MaxBytes: s.maxBytes,
	}
	s.mu.Unlock()
	st.Hits = s.hits.Load()
	st.Misses = s.misses.Load()
	st.Puts = s.puts.Load()
	st.Evictions = s.evictions.Load()
	return st
}
