// Package service is the HTTP/JSON front-end that turns the library into a
// long-running mapping service: requests resolve to engine cells, execute on
// the shared campaign engine, and answer from the same campaign-scope
// AnalysisCache the batch campaigns use — so a service that has mapped a
// workload family once answers every later request on it from warm
// structures.
//
// Every spgserve process exposes the same surface, so any instance can play
// either cluster role: a worker answers /v1/cells/execute (spec ranges in,
// wire results out, solved on the local pool against the shared cache) and
// self-registers with its coordinator via POST /v1/workers, and a
// coordinator schedules /v1/campaign submissions across its worker registry
// through the engine's work-stealing Dispatcher — health-probed workers pull
// family-affine chunks, failed chunks re-dispatch to other workers before
// any local fallback, with bit-identical results every way.
//
// The serving surface is resilient by construction: request deadlines
// (deadline_ms / X-SPG-Deadline) propagate through the dispatcher into every
// worker request, workers refuse ranges they cannot finish in the remaining
// budget, load shedding answers 429 with Retry-After, per-worker circuit
// breakers surface in /v1/healthz, and StartDrain turns the process
// affinity-ineligible without tripping anyone's breaker. See
// internal/chaos for the deterministic fault layer that tests all of it.
//
// Endpoints (see cmd/spgserve/README.md for curl examples):
//
//	GET    /v1/healthz          liveness, cache statistics, worker registry
//	                            and dispatcher counters
//	POST   /v1/map              map one workload (the period-selection protocol)
//	POST   /v1/campaign         submit a campaign; answers 202 with an id
//	GET    /v1/campaign/{id}    poll status, progress and (when done) result
//	DELETE /v1/campaign/{id}    cancel a running campaign / drop a finished one
//	POST   /v1/cells/execute    worker endpoint: solve a range of cell specs
//	POST   /v1/workers          register a worker (self-registration)
//	GET    /v1/workers          list registered workers and health states
//	DELETE /v1/workers          deregister a worker
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spgcmp/internal/engine"
	"spgcmp/internal/experiments"
	"spgcmp/internal/streamit"
)

// Config parameterizes a Server. The zero value serves with the process-wide
// campaign cache, an in-process pool executor and default guard rails.
type Config struct {
	// Cache is the campaign-scope analysis cache shared by every request;
	// nil selects experiments.DefaultAnalysisCache().
	Cache *engine.AnalysisCache
	// Executor is the in-process executor running every local cell:
	// campaigns and batches without workers, /v1/cells/execute ranges, and
	// the chunks a dispatched campaign falls back on; nil selects an
	// engine.PoolExecutor at GOMAXPROCS. The worker registry is the only
	// route to the cluster: when it is non-empty at submission time,
	// campaigns run through a per-job clone of the cluster dispatcher.
	Executor engine.Executor
	// Registry tracks this process's cluster workers (seeds from -worker
	// flags plus POST /v1/workers self-registrations). nil creates an empty
	// registry, so any instance can be promoted to coordinator at runtime
	// by registering workers; the caller owns probing (Start/Stop).
	Registry *engine.WorkerRegistry
	// ChunkCells is the dispatcher's chunk size for registry-scheduled
	// campaigns (0 selects engine.DefaultChunkCells).
	ChunkCells int
	// Client issues the dispatcher's worker requests; nil selects
	// http.DefaultClient. cmd/spgserve's -chaos flag swaps in a
	// fault-injecting chaos.Transport here, so the whole cluster scheduling
	// path can be exercised under deterministic faults.
	Client *http.Client
	// OnFallback, when set, observes every dispatched chunk that fell back
	// onto Executor (cmd/spgserve logs them; counters alone lose the
	// triggering errors).
	OnFallback func(start, end int, err error)
	// MaxGrid bounds the accepted CMP dimensions (default 16 per side).
	MaxGrid int
	// MaxCampaignCells rejects campaign submissions larger than this
	// (default 10000 cells).
	MaxCampaignCells int
	// MaxActiveRanges bounds concurrently executing /v1/cells/execute
	// ranges (default 4); requests beyond it answer 429, which the sending
	// coordinator treats as a worker failure and re-dispatches — the
	// worker-side counterpart of the campaign bound, so a busy coordinator
	// cannot oversubscribe a worker.
	MaxActiveRanges int
	// MaxActiveMaps bounds concurrently executing /v1/map solves (default
	// 4); requests beyond it answer 429 with a Retry-After, mirroring
	// MaxActiveRanges — a map request is a full period-selection solve, so
	// unbounded concurrency would oversubscribe the pool exactly the way
	// unbounded ranges would.
	MaxActiveMaps int
	// MaxQueuedMaps bounds /v1/map solves waiting for an active slot
	// (default 0: beyond MaxActiveMaps, shed immediately — the original
	// semantics). With a positive queue a short burst waits instead of
	// bouncing; beyond active+queued, 429 + Retry-After still sheds.
	MaxQueuedMaps int
	// MaxActiveBatches bounds concurrently executing /v1/map/batch campaigns
	// (default 2), fronted by a wait queue of the same depth; beyond both,
	// 429 + Retry-After. A batch is a whole campaign, so its slots are
	// scarcer than single-map slots.
	MaxActiveBatches int
	// MaxBatchCells rejects /v1/map/batch requests larger than this
	// (default 256 requests).
	MaxBatchCells int
	// Store is the content-addressed cell-outcome store consulted by the map
	// and batch paths before any solve and by campaigns before dispatch; nil
	// disables the layer (every request solves).
	Store *engine.ResultStore
	// JobTTL bounds how long finished campaign jobs stay pollable (default
	// 1 h; negative disables the time bound). Expired jobs are pruned on
	// the next campaign request.
	JobTTL time.Duration
	// MaxFinishedJobs bounds retained finished jobs, oldest-finished evicted
	// first (default 64; negative disables the count bound).
	MaxFinishedJobs int
}

// maxActiveCampaigns bounds concurrently executing campaign jobs;
// submissions beyond it answer 429 so a submission loop cannot
// oversubscribe the executor or pile up result state.
const maxActiveCampaigns = 4

// minRangeBudget is the admission floor for propagated deadlines on
// /v1/cells/execute: a range advertising less remaining budget than this is
// rejected up front with 503 — the worker cannot plausibly finish it, so
// burning the pool on work the sender will have abandoned helps nobody.
const minRangeBudget = 20 * time.Millisecond

// Server implements the mapping service over a shared engine and cache.
type Server struct {
	cache       *engine.AnalysisCache
	exec        engine.Executor // in-process: every local cell, dispatcher fallbacks included
	registry    *engine.WorkerRegistry
	disp        *engine.Dispatcher       // prototype, cloned per registry-scheduled job
	dispTotals  *engine.DispatcherTotals // process-lifetime scheduling counters
	ranges      *admitGate               // bounds concurrent /v1/cells/execute ranges
	maps        *admitGate               // bounds concurrent /v1/map solves
	batches     *admitGate               // bounds concurrent /v1/map/batch campaigns
	campaigns   *admitGate               // bounds concurrent campaign jobs
	store       *engine.ResultStore      // content-addressed outcome store; nil-safe when absent
	flights     *coalescer               // in-flight /v1/map singleflight table
	draining    atomic.Bool              // graceful drain: refuse new work, stay probe-alive
	maxGrid     int
	maxCells    int
	maxBatch    int
	jobTTL      time.Duration
	maxFinished int
	// now is the clock consulted by job retention (time.Now); tests swap in
	// a fake before serving to exercise TTL expiry without sleeping.
	now func() time.Time

	mu     sync.Mutex
	jobs   map[string]*job // guarded by mu
	nextID int             // guarded by mu
}

// job tracks one asynchronous campaign from submission to completion.
type job struct {
	id     string
	seq    int // submission order, the retention tie-break for equal finish times
	kind   string
	total  int
	done   atomic.Int64
	cancel context.CancelFunc
	disp   *engine.Dispatcher // non-nil when the job runs on the cluster dispatcher

	// finishedAt is set (under Server.mu) when the campaign stops running;
	// retention reads it under the same lock.
	finishedAt time.Time

	mu     sync.Mutex
	status string // guarded by mu; "running", "done", "failed", "cancelled"
	result any    // guarded by mu
	errMsg string // guarded by mu
}

// New returns a Server ready to serve.
func New(cfg Config) *Server {
	if cfg.Cache == nil {
		cfg.Cache = experiments.DefaultAnalysisCache()
	}
	if cfg.Executor == nil {
		cfg.Executor = &engine.PoolExecutor{}
	}
	if cfg.MaxGrid <= 0 {
		cfg.MaxGrid = 16
	}
	if cfg.MaxCampaignCells <= 0 {
		cfg.MaxCampaignCells = 10_000
	}
	if cfg.MaxActiveRanges <= 0 {
		cfg.MaxActiveRanges = 4
	}
	if cfg.MaxActiveMaps <= 0 {
		cfg.MaxActiveMaps = 4
	}
	if cfg.MaxQueuedMaps < 0 {
		cfg.MaxQueuedMaps = 0
	}
	if cfg.MaxActiveBatches <= 0 {
		cfg.MaxActiveBatches = 2
	}
	if cfg.MaxBatchCells <= 0 {
		cfg.MaxBatchCells = 256
	}
	if cfg.JobTTL == 0 {
		cfg.JobTTL = time.Hour
	}
	if cfg.MaxFinishedJobs == 0 {
		cfg.MaxFinishedJobs = 64
	}
	if cfg.Registry == nil {
		cfg.Registry = engine.NewWorkerRegistry(0)
	}
	totals := &engine.DispatcherTotals{}
	return &Server{
		cache:    cfg.Cache,
		exec:     cfg.Executor,
		registry: cfg.Registry,
		disp: &engine.Dispatcher{
			Registry:   cfg.Registry,
			ChunkCells: cfg.ChunkCells,
			Client:     cfg.Client,
			OnFallback: cfg.OnFallback,
			Totals:     totals,
		},
		dispTotals:  totals,
		ranges:      newAdmitGate(cfg.MaxActiveRanges, 0),
		maps:        newAdmitGate(cfg.MaxActiveMaps, cfg.MaxQueuedMaps),
		batches:     newAdmitGate(cfg.MaxActiveBatches, cfg.MaxActiveBatches),
		campaigns:   newAdmitGate(maxActiveCampaigns, 0),
		store:       cfg.Store,
		flights:     newCoalescer(),
		maxGrid:     cfg.MaxGrid,
		maxCells:    cfg.MaxCampaignCells,
		maxBatch:    cfg.MaxBatchCells,
		jobTTL:      cfg.JobTTL,
		maxFinished: cfg.MaxFinishedJobs,
		now:         time.Now,
		jobs:        make(map[string]*job),
	}
}

// StartDrain puts the server into graceful-drain mode: new work — map
// solves, campaign submissions and cell ranges — answers 503 so senders
// re-route immediately, while /v1/healthz keeps answering 200 (status
// "draining") so a coordinator's probes never mistake the drain for a crash
// and trip the circuit breaker. In-flight requests are unaffected; the
// process-level shutdown (http.Server.Shutdown in cmd/spgserve) waits for
// them. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/map", s.handleMap)
	mux.HandleFunc("POST /v1/map/batch", s.handleMapBatch)
	mux.HandleFunc("POST /v1/campaign", s.handleCampaignSubmit)
	mux.HandleFunc("GET /v1/campaign/{id}", s.handleCampaignStatus)
	mux.HandleFunc("DELETE /v1/campaign/{id}", s.handleCampaignDelete)
	mux.HandleFunc("POST /v1/cells/execute", s.handleCellsExecute)
	mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
	mux.HandleFunc("GET /v1/workers", s.handleWorkerList)
	mux.HandleFunc("DELETE /v1/workers", s.handleWorkerDeregister)
	return mux
}

// --- JSON wire types ---

type errorResponse struct {
	Error string `json:"error"`
}

type healthzResponse struct {
	Status string            `json:"status"`
	Cache  engine.CacheStats `json:"cache"`
	// ResultStore is the content-addressed outcome store's snapshot, present
	// when the store is enabled.
	ResultStore *engine.ResultStoreStats `json:"result_store,omitempty"`
	// Coalescing counts the map path's singleflight traffic: flights led
	// (each at most one solve) and requests answered by an existing flight.
	Coalescing coalesceStats `json:"coalescing"`
	// Workers is the worker registry's health snapshot (coordinators only).
	Workers []engine.WorkerInfo `json:"workers,omitempty"`
	// Dispatcher aggregates cluster-scheduling counters across every
	// campaign this process has coordinated.
	Dispatcher *engine.DispatcherStats `json:"dispatcher,omitempty"`
}

// workerRequest names one worker for POST/DELETE /v1/workers. Draining is
// the graceful-shutdown announcement: a worker POSTs {url, draining:true}
// when it receives SIGTERM, which keeps it registered (and probe-alive) but
// removes it from chunk placement until it re-registers plainly or
// deregisters.
type workerRequest struct {
	URL      string `json:"url"`
	Draining bool   `json:"draining,omitempty"`
}

type workersResponse struct {
	Workers []engine.WorkerInfo `json:"workers"`
}

// workloadRef names one workload in a /v1/map request: exactly one of
// StreamIt (a Table 1 application name, optionally rescaled to CCR; 0 keeps
// the original) or Random (a seeded random SPG). It is the request shape
// only — experiments.WorkloadCell lowers it onto an engine.Cell, the same
// lowering the command-line tools use.
type workloadRef struct {
	StreamIt string                 `json:"streamit,omitempty"`
	CCR      float64                `json:"ccr,omitempty"`
	Random   *engine.RandomWorkload `json:"random,omitempty"`
}

// cell resolves the workload to its engine cell on a p x q grid.
func (w workloadRef) cell(p, q int, seed int64) (engine.Cell, error) {
	return experiments.WorkloadCell(engine.WorkloadSpec{StreamIt: w.StreamIt, Random: w.Random}, w.CCR, p, q, seed)
}

type mapRequest struct {
	Workload workloadRef `json:"workload"`
	P        int         `json:"p"`
	Q        int         `json:"q"`
	Seed     int64       `json:"seed"`
	// DeadlineMS is the client's time budget in milliseconds; past it the
	// request answers 504 instead of a result. The X-SPG-Deadline header is
	// an equivalent spelling (the body field wins when both are set).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

type mapResponse struct {
	Key string `json:"key"`
	engine.Answer
	// Error is set only inside a batch response, where one failed item must
	// not fail its siblings; the single-request path answers 500 instead.
	Error string `json:"error,omitempty"`
}

type campaignRequest struct {
	StreamIt *streamItCampaignRequest `json:"streamit,omitempty"`
	Random   *randomCampaignRequest   `json:"random,omitempty"`
	// Workers optionally schedules the campaign across an explicit worker
	// list (base URLs) through an ephemeral dispatcher, ignoring the
	// process registry; empty uses the registry (when it has workers) or
	// this process's executor. ChunkCells overrides the dispatcher chunk
	// size for this campaign.
	Workers    []string `json:"workers,omitempty"`
	ChunkCells int      `json:"chunk_cells,omitempty"`
	// DeadlineMS bounds the whole campaign in milliseconds: the budget
	// flows through the dispatcher into every worker request (workers
	// reject ranges they cannot finish in the remainder), and a campaign
	// that outlives it fails with "deadline exceeded". The X-SPG-Deadline
	// header is an equivalent spelling (the body field wins).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

type streamItCampaignRequest struct {
	P    int      `json:"p"`
	Q    int      `json:"q"`
	Apps []string `json:"apps,omitempty"` // nil = full suite
	Seed int64    `json:"seed"`
}

type randomCampaignRequest struct {
	N             int     `json:"n"`
	P             int     `json:"p"`
	Q             int     `json:"q"`
	CCR           float64 `json:"ccr"`
	MinElevation  int     `json:"min_elevation,omitempty"`
	MaxElevation  int     `json:"max_elevation"`
	GraphsPerElev int     `json:"graphs_per_elev,omitempty"`
	Seed          int64   `json:"seed"`
}

type campaignSubmitResponse struct {
	ID        string `json:"id"`
	StatusURL string `json:"status_url"`
	Total     int    `json:"total"`
}

type campaignStatusResponse struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Status string `json:"status"`
	Done   int64  `json:"done"`
	Total  int    `json:"total"`
	// Redispatches counts chunks that failed on one worker and were served
	// by a different one — recovered inside the cluster, not locally.
	Redispatches int64 `json:"redispatches,omitempty"`
	// LocalFallbacks counts chunks re-executed on the coordinator's own
	// executor after every healthy worker failed them. Bit-identical results
	// either way.
	LocalFallbacks int64 `json:"local_fallbacks,omitempty"`
	// Steals counts chunks served by a worker other than their
	// cache-affinity owner (idle workers evening out load).
	Steals int64 `json:"steals,omitempty"`
	// Retries counts remote dispatch retries this campaign consumed from
	// its RetryBudget; RetryBudget is the campaign's total allowance.
	Retries     int64 `json:"retries,omitempty"`
	RetryBudget int64 `json:"retry_budget,omitempty"`
	// WorkerChunks attributes this campaign's chunks to the workers that
	// served them.
	WorkerChunks map[string]int64 `json:"worker_chunks,omitempty"`
	Result       any              `json:"result,omitempty"`
	Error        string           `json:"error,omitempty"`
}

// --- handlers ---

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeShedError answers a load-shedding rejection with a Retry-After hint
// (RFC 9110 §10.2.3) so well-behaved clients back off instead of hammering.
func writeShedError(w http.ResponseWriter, code, retryAfterSeconds int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeError(w, code, format, args...)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{Status: "ok", Cache: s.cache.Stats(), Coalescing: s.flights.stats()}
	if s.store.Enabled() {
		st := s.store.Stats()
		resp.ResultStore = &st
	}
	if s.draining.Load() {
		// Still 200: a draining worker is alive and finishing in-flight work;
		// answering an error here would trip the coordinator's breaker and
		// turn every graceful restart into a spurious death.
		resp.Status = "draining"
	}
	resp.Workers = s.registry.Workers()
	if st := s.dispTotals.Stats(); st.Chunks > 0 || len(resp.Workers) > 0 {
		resp.Dispatcher = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxWorkerBodyBytes bounds worker register and deregister bodies, which
// carry one URL.
const maxWorkerBodyBytes = 64 << 10

// handleWorkerRegister adds a worker to the registry — how workers started
// with -register-with announce themselves, and how an operator promotes any
// running instance to coordinator. Registration is idempotent (workers
// re-announce every probe interval as a keep-alive) and revives dead
// entries, so a restarted worker rejoins ahead of the next health probe.
func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req workerRequest
	if !decodeBody(w, r, maxWorkerBodyBytes, &req) {
		return
	}
	if err := s.registry.Register(req.URL); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if req.Draining {
		// Register first, then mark: registration clears any stale draining
		// flag, so the order makes {draining:true} land deterministically.
		s.registry.MarkDraining(req.URL, true)
	}
	writeJSON(w, http.StatusOK, workersResponse{Workers: s.registry.Workers()})
}

func (s *Server) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, workersResponse{Workers: s.registry.Workers()})
}

func (s *Server) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	var req workerRequest
	if !decodeBody(w, r, maxWorkerBodyBytes, &req) {
		return
	}
	if !s.registry.Deregister(req.URL) {
		writeError(w, http.StatusNotFound, "unknown worker %q", req.URL)
		return
	}
	writeJSON(w, http.StatusOK, workersResponse{Workers: s.registry.Workers()})
}

func (s *Server) checkGrid(p, q int) error {
	if p < 1 || q < 1 || p > s.maxGrid || q > s.maxGrid {
		return fmt.Errorf("grid %dx%d outside [1, %d] per side", p, q, s.maxGrid)
	}
	return nil
}

// maxSpecBytes is the per-spec allowance of a /v1/cells/execute body: the
// body may hold MaxCampaignCells specs of this size. StreamIt and random
// specs measure under 300 bytes; the bound is on the whole body, so a short
// range of larger specs (inline graphs) still fits.
const maxSpecBytes = 1 << 10

// handleCellsExecute is the worker endpoint: a coordinator's Dispatcher
// POSTs a range of cell specs, this process solves them on its local pool
// against the shared campaign cache, and answers one wire result per cell in
// request order. Specs are validated up front so a malformed range is
// rejected whole (the coordinator re-dispatches it) rather than
// half-executed. A propagated DeadlineHeader budget is honored
// two ways: a range that cannot plausibly finish (budget below
// minRangeBudget) is refused outright with 503, and an admitted range solves
// under a context bounded by the budget so an overrun stops at the deadline
// instead of burning the pool on an answer the sender has abandoned.
func (s *Server) handleCellsExecute(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeShedError(w, http.StatusServiceUnavailable, 1, "draining: not accepting new ranges")
		return
	}
	budget, hasBudget, err := engine.ParseDeadline(r.Header, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if hasBudget && budget < minRangeBudget {
		writeShedError(w, http.StatusServiceUnavailable, 1, "remaining budget %v below the %v admission floor", budget, minRangeBudget)
		return
	}
	var req engine.ExecuteCellsRequest
	if !decodeBody(w, r, int64(s.maxCells)*maxSpecBytes, &req) {
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, http.StatusBadRequest, "bad request: no cells")
		return
	}
	if len(req.Cells) > s.maxCells {
		writeError(w, http.StatusBadRequest, "bad request: range has %d cells, limit %d", len(req.Cells), s.maxCells)
		return
	}
	for _, spec := range req.Cells {
		if err := spec.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		if err := s.checkGrid(spec.P, spec.Q); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: cell %q: %v", spec.Key, err)
			return
		}
	}
	// Admission control: each range runs a full local pool, so unbounded
	// concurrent ranges would oversubscribe the worker the same way
	// unbounded campaigns would the coordinator. The sender treats 429 as a
	// worker failure and re-dispatches the range (the range gate has no
	// queue — a queued range would burn its sender's deadline).
	if err := s.ranges.acquire(nil); err != nil {
		writeShedError(w, http.StatusTooManyRequests, 1, "%d cell ranges already executing; retry later", s.ranges.capacity())
		return
	}
	defer s.ranges.release()
	ctx := r.Context()
	if hasBudget {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	results, err := engine.ExecuteSpecs(ctx, s.exec, req.Cells, s.cache, s.store)
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the range finished")
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "execute failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, engine.ExecuteCellsResponse{Results: results})
}

// handleCampaignSubmit validates a campaign, registers a job and runs it
// asynchronously on the shared executor; the response is the id to poll.
func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeShedError(w, http.StatusServiceUnavailable, 1, "draining: not accepting new campaigns")
		return
	}
	var req campaignRequest
	if !decodeBody(w, r, maxMapBodyBytes, &req) {
		return
	}
	budget, hasBudget, err := engine.ParseDeadline(r.Header, req.DeadlineMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	var (
		kind   string
		cells  []engine.Cell
		reduce func([]engine.CellResult) (any, error)
	)
	switch {
	case req.StreamIt != nil && req.Random != nil:
		writeError(w, http.StatusBadRequest, "bad request: campaign names both streamit and random")
		return
	case req.StreamIt != nil:
		c := req.StreamIt
		if err := s.checkGrid(c.P, c.Q); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		var apps []streamit.App
		if c.Apps != nil {
			for _, name := range c.Apps {
				a, err := streamit.ByName(name)
				if err != nil {
					writeError(w, http.StatusBadRequest, "bad request: %v", err)
					return
				}
				apps = append(apps, a)
			}
			if len(apps) == 0 {
				writeError(w, http.StatusBadRequest, "bad request: empty application list")
				return
			}
		}
		kind = "streamit"
		cells = experiments.StreamItCells(c.P, c.Q, apps, c.Seed)
		reduce = func(results []engine.CellResult) (any, error) {
			return experiments.ReduceStreamIt(c.P, c.Q, apps, results)
		}
	case req.Random != nil:
		c := req.Random
		if err := s.checkGrid(c.P, c.Q); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		cfg := experiments.RandomConfig{
			N: c.N, P: c.P, Q: c.Q, CCR: c.CCR,
			MinElevation: c.MinElevation, MaxElevation: c.MaxElevation,
			GraphsPerElev: c.GraphsPerElev, Seed: c.Seed,
			Cache: s.cache,
		}
		// Admission control before enumeration: NumCells is arithmetic, so an
		// absurd elevation range is rejected without materializing anything.
		if n := cfg.NumCells(); n > int64(s.maxCells) {
			writeError(w, http.StatusBadRequest, "bad request: campaign has %d cells, limit %d", n, s.maxCells)
			return
		}
		var err error
		cells, err = experiments.RandomCells(cfg)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		kind = "random"
		reduce = func(results []engine.CellResult) (any, error) {
			return experiments.ReduceRandom(cfg, results)
		}
	default:
		writeError(w, http.StatusBadRequest, "bad request: campaign names neither streamit nor random")
		return
	}
	if len(cells) > s.maxCells {
		writeError(w, http.StatusBadRequest, "bad request: campaign has %d cells, limit %d", len(cells), s.maxCells)
		return
	}
	if req.ChunkCells < 0 {
		writeError(w, http.StatusBadRequest, "bad request: chunk_cells=%d must not be negative", req.ChunkCells)
		return
	}
	var disp *engine.Dispatcher
	switch {
	case len(req.Workers) > 0:
		// An explicit worker list runs on an ephemeral registry: no probing,
		// health learned from dispatch outcomes alone, discarded with the job.
		reg := engine.NewWorkerRegistry(0)
		for _, u := range req.Workers {
			if err := reg.Register(u); err != nil {
				writeError(w, http.StatusBadRequest, "bad request: %v", err)
				return
			}
		}
		disp = s.disp.Clone()
		disp.Registry = reg
	case s.registry.Len() > 0:
		// Registry-scheduled: a per-job clone of the cluster dispatcher, so
		// the job's status reports its own counters while the shared Totals
		// keep the process-lifetime view for /v1/healthz.
		disp = s.disp.Clone()
	}
	if disp != nil && req.ChunkCells > 0 {
		disp.ChunkCells = req.ChunkCells
	}

	if err := s.campaigns.acquire(nil); err != nil {
		n := s.campaigns.capacity()
		writeShedError(w, http.StatusTooManyRequests, 1, "%d campaigns already running, limit %d; retry later", n, n)
		return
	}
	s.mu.Lock()
	s.pruneJobsLocked()
	//spglint:ignore ctxflow async campaign outlives its submitting request; cancelled via DELETE /v1/campaign/{id}
	ctx, cancel := context.WithCancel(context.Background())
	if hasBudget {
		// The campaign deadline layers over the cancellation context, so the
		// budget flows through the dispatcher into every worker request (each
		// postCellRange stamps the remainder into DeadlineHeader) and an
		// overrunning campaign fails with "deadline exceeded".
		dctx, dcancel := context.WithTimeout(ctx, budget)
		base := cancel
		ctx, cancel = dctx, func() { dcancel(); base() }
	}
	s.nextID++
	j := &job{id: fmt.Sprintf("c%d", s.nextID), seq: s.nextID, kind: kind, total: len(cells), status: "running", cancel: cancel, disp: disp}
	s.jobs[j.id] = j
	s.mu.Unlock()

	go s.runCampaign(ctx, j, cells, reduce)

	writeJSON(w, http.StatusAccepted, campaignSubmitResponse{
		ID:        j.id,
		StatusURL: "/v1/campaign/" + j.id,
		Total:     j.total,
	})
}

func (s *Server) runCampaign(ctx context.Context, j *job, cells []engine.Cell, reduce func([]engine.CellResult) (any, error)) {
	results, err := engine.Run(ctx, s.exec, engine.Campaign{
		Cells:      cells,
		Cache:      s.cache,
		Dispatcher: j.disp,
		Store:      s.store,
		OnCell:     func(engine.CellResult) { j.done.Add(1) },
	})
	var result any
	if err == nil {
		result, err = reduce(results)
	}
	// Release the active-campaign slot before the job turns visible as
	// finished, so a poller that observes "done" can immediately submit the
	// next campaign without racing a 429.
	s.campaigns.release()
	s.mu.Lock()
	j.finishedAt = s.now()
	s.mu.Unlock()
	j.cancel() // release the context now that the run is over
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		j.status = "failed"
		j.errMsg = "deadline exceeded"
	case errors.Is(err, context.Canceled):
		j.status = "cancelled"
		j.errMsg = "cancelled"
	case err != nil:
		j.status = "failed"
		j.errMsg = err.Error()
	default:
		j.status = "done"
		j.result = result
	}
}

// pruneJobsLocked enforces the finished-job retention bounds: jobs older
// than the TTL are dropped, and beyond MaxFinishedJobs the oldest-finished
// go first. Running jobs are never pruned. Callers hold s.mu.
func (s *Server) pruneJobsLocked() {
	now := s.now()
	var finished []*job
	for id, j := range s.jobs {
		if j.finishedAt.IsZero() {
			continue
		}
		if s.jobTTL > 0 && now.Sub(j.finishedAt) > s.jobTTL {
			delete(s.jobs, id)
			continue
		}
		finished = append(finished, j)
	}
	if s.maxFinished > 0 && len(finished) > s.maxFinished {
		sort.Slice(finished, func(i, k int) bool {
			if !finished[i].finishedAt.Equal(finished[k].finishedAt) {
				return finished[i].finishedAt.Before(finished[k].finishedAt)
			}
			// Equal finish times (coarse or injected clocks): evict the
			// earlier submission, deterministically.
			return finished[i].seq < finished[k].seq
		})
		for _, j := range finished[:len(finished)-s.maxFinished] {
			delete(s.jobs, j.id)
		}
	}
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	s.pruneJobsLocked()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	j.mu.Lock()
	resp := campaignStatusResponse{
		ID:     j.id,
		Kind:   j.kind,
		Status: j.status,
		Done:   j.done.Load(),
		Total:  j.total,
		Result: j.result,
		Error:  j.errMsg,
	}
	j.mu.Unlock()
	if j.disp != nil {
		st := j.disp.Stats()
		resp.Redispatches = st.Redispatches
		resp.LocalFallbacks = st.LocalFallbacks
		resp.Steals = st.Steals
		resp.Retries = st.Retries
		resp.RetryBudget = st.RetryBudget
		resp.WorkerChunks = st.WorkerChunks
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCampaignDelete cancels a running campaign (the engine's executors
// honor context cancellation: in-flight cells drain, unstarted cells never
// run, and the job turns "cancelled") or drops a finished one from the job
// table immediately.
func (s *Server) handleCampaignDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	running := j != nil && j.finishedAt.IsZero()
	if j != nil && !running {
		delete(s.jobs, id)
	}
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	if running {
		j.cancel()
		writeJSON(w, http.StatusAccepted, campaignStatusResponse{ID: j.id, Kind: j.kind, Status: "cancelling", Done: j.done.Load(), Total: j.total})
		return
	}
	j.mu.Lock()
	status := j.status
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, campaignStatusResponse{ID: j.id, Kind: j.kind, Status: status, Done: j.done.Load(), Total: j.total})
}
