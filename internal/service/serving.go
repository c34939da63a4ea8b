package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"

	"spgcmp/internal/engine"
)

// --- generalized admission control ---

// admitGate is the service's admission-control primitive: a bounded set of
// active slots fronted by a bounded wait queue, generalizing the original
// shed-immediately semaphores (MaxActiveMaps / MaxActiveRanges). With a zero
// queue it behaves exactly like them — beyond the active bound, shed — and
// with a positive queue a short burst waits for a slot instead of bouncing,
// while anything beyond active+queued still sheds with 429 + Retry-After so
// overload never builds an unbounded backlog.
type admitGate struct {
	active chan struct{} // filled while a slot is held
	queue  chan struct{} // filled while a request waits; nil = shed immediately
}

func newAdmitGate(active, queued int) *admitGate {
	g := &admitGate{active: make(chan struct{}, active)}
	if queued > 0 {
		g.queue = make(chan struct{}, queued)
	}
	return g
}

// errAdmitShed reports that both the active slots and the wait queue were
// full at arrival.
var errAdmitShed = errors.New("service: admission queue full")

// acquire claims an active slot, waiting in the bounded queue when one is
// configured. It returns errAdmitShed when the gate is saturated and
// ctx.Err() when the caller's context ends while queued; on nil the caller
// must release(). A nil ctx waits without a cancellation point — the path
// for detached solvers whose slot turnover is bounded by the solves ahead of
// them.
func (g *admitGate) acquire(ctx context.Context) error {
	select {
	case g.active <- struct{}{}:
		return nil
	default:
	}
	if g.queue == nil {
		return errAdmitShed
	}
	select {
	case g.queue <- struct{}{}:
	default:
		return errAdmitShed
	}
	defer func() { <-g.queue }()
	if ctx == nil {
		g.active <- struct{}{}
		return nil
	}
	select {
	case g.active <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *admitGate) release() { <-g.active }

// capacity is the active-slot bound (for shed messages).
func (g *admitGate) capacity() int { return cap(g.active) }

// --- singleflight coalescing ---

// flight is one in-flight solve shared by every concurrent request for the
// same content key. The leader publishes into the result fields and then
// closes done; the channel close is the happens-before edge that lets
// waiters read them without further locking.
type flight struct {
	done chan struct{}
	ans  engine.StoredAnswer // set before done closes
	err  error               // set before done closes: the workload failed to build
	shed bool                // set before done closes: the solve never ran, admission was saturated
}

// coalescer deduplicates identical in-flight /v1/map workloads: the first
// request for a content key becomes the leader and runs the solve; every
// request that arrives before it finishes joins the same flight and receives
// the identical result. Join-then-solve ordering makes "exactly one solve
// per key at a time" a structural guarantee, not a race outcome.
type coalescer struct {
	mu      sync.Mutex
	flights map[string]*flight // guarded by mu

	solves    atomic.Uint64 // flights led (each is at most one solve)
	coalesced atomic.Uint64 // requests answered by someone else's flight
}

func newCoalescer() *coalescer {
	return &coalescer{flights: make(map[string]*flight)}
}

// join returns the flight for key and whether the caller leads it (and must
// therefore solve and finish it). The empty key — a workload that cannot be
// content-hashed — gets a private flight: it is always led, never shared.
func (c *coalescer) join(key string) (*flight, bool) {
	if key == "" {
		c.solves.Add(1)
		return &flight{done: make(chan struct{})}, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.flights[key]; f != nil {
		c.coalesced.Add(1)
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.solves.Add(1)
	return f, true
}

// finish publishes the flight: it is removed from the table first — so a
// request arriving after the result exists starts fresh (and hits the
// result store instead) — and then done is closed, releasing every waiter.
func (c *coalescer) finish(key string, f *flight) {
	if key != "" {
		c.mu.Lock()
		if c.flights[key] == f {
			delete(c.flights, key)
		}
		c.mu.Unlock()
	}
	close(f.done)
}

// coalesceStats snapshots the coalescer's traffic counters for /v1/healthz.
type coalesceStats struct {
	// Solves counts flights led: an upper bound on the solves the map path
	// has ever started (store hits never open a flight).
	Solves uint64 `json:"solves"`
	// Coalesced counts requests that were answered by an already-in-flight
	// identical solve instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
}

func (c *coalescer) stats() coalesceStats {
	return coalesceStats{Solves: c.solves.Load(), Coalesced: c.coalesced.Load()}
}

// --- /v1/map ---

// maxMapBodyBytes bounds /v1/map and /v1/map/batch request bodies. A map
// request is under 1 KiB and a 256-item batch under 64 KiB.
const maxMapBodyBytes = 1 << 20

// decodeBody decodes a request body of at most limit bytes into v,
// rejecting unknown fields. It answers 413 past limit and 400 for any other
// decode failure, and reports whether v is ready.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
	}
	return false
}

// handleMap answers one workload synchronously, through three layers that
// keep repeat traffic off the solver pool: the content-addressed ResultStore
// (a prior identical solve answers in O(1) from its stored encoded answer,
// byte-identical by per-cell determinism), singleflight coalescing (N concurrent identical requests
// share one solve), and only then an admitted full period-selection solve —
// bounded by MaxActiveMaps with a MaxQueuedMaps wait queue, beyond which 429
// + Retry-After sheds. Infeasible workloads — no heuristic succeeds even at
// the 1 s starting period — answer 422 with feasible=false and the failing
// outcomes, distinguishing "the service cannot map this" from request
// errors. A deadline_ms / X-SPG-Deadline budget turns an overrunning wait
// into 504 at the deadline; the abandoned solve still finishes and warms the
// store for the client's retry.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeShedError(w, http.StatusServiceUnavailable, 1, "draining: not accepting new work")
		return
	}
	var req mapRequest
	if !decodeBody(w, r, maxMapBodyBytes, &req) {
		return
	}
	if err := s.checkGrid(req.P, req.Q); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	budget, hasBudget, err := engine.ParseDeadline(r.Header, req.DeadlineMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	cell, err := req.Workload.cell(req.P, req.Q, req.Seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	// Keep placements so the answer is actionable: the response carries the
	// winning mapping, not just its energy. Set before hashing — KeepMappings
	// changes the result payload, so it is part of the content key.
	cell.Spec.Opts.KeepMappings = true
	key := ""
	if k, err := cell.Spec.ContentKey(); err == nil {
		key = k
	}
	// Fast path: a previously solved identical workload answers from the
	// store without touching the coalescer or the admission gate.
	if a, ok := s.store.Get(key); ok {
		writeMapAnswer(w, cell.Spec.Key, a)
		return
	}
	ctx := r.Context()
	if hasBudget {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	f, leads := s.flights.join(key)
	if leads {
		// The solve runs on a side goroutine detached from this request so
		// the handler can answer 504 at its deadline while the solve runs out
		// (bounded by the map gate) and publishes for every other waiter —
		// and warms the store for the client's retry.
		go s.solveFlight(cell, key, f)
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the solve finished")
		return
	}
	if f.shed {
		writeShedError(w, http.StatusTooManyRequests, 1, "%d map requests already executing; retry later", s.maps.capacity())
		return
	}
	if f.err != nil {
		writeError(w, http.StatusInternalServerError, "workload build failed: %v", f.err)
		return
	}
	writeMapAnswer(w, cell.Spec.Key, f.ans)
}

// solveFlight is the leader half of one coalesced solve: admit, re-check the
// store (another flight may have stored the key while this request was being
// admitted), solve, store, publish. The answer is encoded once: the store
// and every waiter share the same bytes.
func (s *Server) solveFlight(cell engine.Cell, key string, f *flight) {
	if a, ok := s.store.Get(key); ok {
		f.ans = a
		s.flights.finish(key, f)
		return
	}
	if err := s.maps.acquire(nil); err != nil {
		f.shed = true
		s.flights.finish(key, f)
		return
	}
	defer s.maps.release()
	f.ans, f.err = engine.EncodeAnswer(engine.Solve(cell, s.cache))
	if f.err == nil {
		s.store.Put(key, f.ans)
	}
	s.flights.finish(key, f)
}

// --- /v1/map/batch ---

// batchMapRequest is the body of POST /v1/map/batch: up to MaxBatchCells
// /v1/map-shaped requests answered together, with one optional deadline over
// the whole batch.
type batchMapRequest struct {
	Requests []batchMapItem `json:"requests"`
	// DeadlineMS bounds the whole batch in milliseconds; past it the request
	// answers 504. The X-SPG-Deadline header is an equivalent spelling (the
	// body field wins when both are set).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// batchMapItem is one workload of a batch: the mapRequest shape without the
// per-request deadline (the batch deadline covers all of them).
type batchMapItem struct {
	Workload workloadRef `json:"workload"`
	P        int         `json:"p"`
	Q        int         `json:"q"`
	Seed     int64       `json:"seed"`
}

// batchMapResponse answers a batchMapRequest with one result per request, in
// request order. Items are independent: an infeasible or failed item carries
// feasible=false or its error inline instead of failing the batch.
type batchMapResponse struct {
	Results []mapResponse `json:"results"`
}

// handleMapBatch answers many workloads in one request by enumerating them
// into a single engine campaign: on a coordinator the dispatcher fans the
// batch out across the worker cluster with cache affinity, and the result
// store strips previously solved cells before dispatch (duplicates within a
// cold batch each solve — sharing the family analysis — and every later
// occurrence anywhere is an O(1) hit). The
// whole batch is validated before anything executes — a malformed item
// rejects the batch with 400, so partial execution never happens. Admission
// mirrors /v1/map with its own gate (MaxActiveBatches active, as many
// queued): beyond it, 429 + Retry-After.
func (s *Server) handleMapBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeShedError(w, http.StatusServiceUnavailable, 1, "draining: not accepting new work")
		return
	}
	var req batchMapRequest
	if !decodeBody(w, r, maxMapBodyBytes, &req) {
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "bad request: empty batch")
		return
	}
	if len(req.Requests) > s.maxBatch {
		writeError(w, http.StatusBadRequest, "bad request: batch has %d requests, limit %d", len(req.Requests), s.maxBatch)
		return
	}
	budget, hasBudget, err := engine.ParseDeadline(r.Header, req.DeadlineMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	cells := make([]engine.Cell, len(req.Requests))
	for i, item := range req.Requests {
		if err := s.checkGrid(item.P, item.Q); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: request %d: %v", i, err)
			return
		}
		cell, err := item.Workload.cell(item.P, item.Q, item.Seed)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad request: request %d: %v", i, err)
			return
		}
		cell.Spec.Opts.KeepMappings = true
		cells[i] = cell
	}
	if err := s.batches.acquire(r.Context()); err != nil {
		if errors.Is(err, errAdmitShed) {
			writeShedError(w, http.StatusTooManyRequests, 1, "%d batches already executing; retry later", s.batches.capacity())
		} else {
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the batch was admitted")
		}
		return
	}
	defer s.batches.release()
	ctx := r.Context()
	if hasBudget {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	// One campaign for the whole batch: registry-scheduled when this process
	// coordinates a cluster (the clone shares its registry), on the
	// configured executor otherwise.
	results, err := engine.Run(ctx, s.exec, engine.Campaign{Cells: cells, Cache: s.cache, Dispatcher: s.disp.Clone(), Store: s.store})
	if errors.Is(err, context.DeadlineExceeded) || (err == nil && errors.Is(ctx.Err(), context.DeadlineExceeded)) {
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the batch finished")
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "batch failed: %v", err)
		return
	}
	resp := batchMapResponse{Results: make([]mapResponse, len(results))}
	for i, res := range results {
		if res.Err != nil {
			resp.Results[i] = mapResponse{Key: res.Key, Error: res.Err.Error()}
			continue
		}
		resp.Results[i] = mapResponse{Key: res.Key, Answer: engine.AnswerFor(res)}
	}
	writeJSON(w, http.StatusOK, resp)
}
