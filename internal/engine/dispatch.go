package engine

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultChunkCells is the dispatcher's default chunk size: the number of
// CCR variants in a StreamIt family, so the default chunking ships one whole
// workload family per request.
const DefaultChunkCells = 4

// Retry discipline: a failed chunk waits a jittered exponential backoff
// (DefaultRetryBaseDelay doubling per attempt, capped at
// DefaultRetryMaxDelay) before its next dispatch attempt instead of
// hammering the next worker immediately, and a campaign stops retrying
// altogether once it has spent its retry budget (DefaultRetryBudgetPerChunk
// attempts per chunk), degrading to the local executor rather than retrying
// forever.
const (
	DefaultRetryBaseDelay      = 50 * time.Millisecond
	DefaultRetryMaxDelay       = 2 * time.Second
	DefaultRetryBudgetPerChunk = 4
)

// DefaultStealMinBenefit is the steal-benefit gate's threshold: a steal
// must save at least this much expected owner-queue wait to be worth
// breaking cache affinity. Sized at a few times a warm-cache chunk's service time, so
// affinity survives transient idleness but real backlogs still spread.
const DefaultStealMinBenefit = 20 * time.Millisecond

// retryDelay computes the backoff before retry number attempt (1-based) of
// the chunk starting at cell index start: base doubled per prior attempt,
// jittered into [0.5, 1.5) of itself by a pure FNV hash of (start, attempt),
// clamped to max; base and max <= 0 select DefaultRetryBaseDelay and
// DefaultRetryMaxDelay. The jitter decorrelates chunks that failed together (one dead worker fails
// many chunks at once) without math/rand: the same (chunk, attempt) always
// backs off identically, so a chaos schedule replays exactly.
func retryDelay(start, attempt int, base, max time.Duration) time.Duration {
	if base <= 0 {
		base = DefaultRetryBaseDelay
	}
	if max <= 0 {
		max = DefaultRetryMaxDelay
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	// The first word stays zero: it held a jitter seed that every shipped
	// caller left at 0, so the backoff schedule is unchanged.
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[8:], uint64(start))
	binary.LittleEndian.PutUint64(buf[16:], uint64(attempt))
	h.Write(buf[:])
	frac := float64(float64(h.Sum64()>>11) / float64(uint64(1)<<53))
	jittered := time.Duration((0.5 + frac) * float64(d))
	if jittered > max {
		jittered = max
	}
	return jittered
}

// rendezvousOwner picks the worker that owns a workload family under
// highest-random-weight (rendezvous) hashing: every (family, worker) pair is
// hashed independently and the highest hash wins. The scheme's point is
// membership stability — when a worker dies, only the families it owned move
// (to their second-highest worker), and when it rejoins they move back — so
// a workload family keeps landing on the worker whose AnalysisCache already
// holds its analysis. An empty family or worker list owns nothing.
func rendezvousOwner(family string, workers []string) string {
	if family == "" || len(workers) == 0 {
		return ""
	}
	best, bestScore := "", uint64(0)
	for _, w := range workers {
		h := fnv.New64a()
		h.Write([]byte(family))
		h.Write([]byte{0})
		h.Write([]byte(w))
		score := h.Sum64()
		if best == "" || score > bestScore || (score == bestScore && w < best) {
			best, bestScore = w, score
		}
	}
	return best
}

// chunk is one schedulable unit of a dispatched campaign: a contiguous cell
// range that never straddles a workload-family boundary, so affinity routing
// places whole families.
type chunk struct {
	start, end int
	family     string // FamilyKey shared by every cell; "" = no affinity
	// attempted records workers that already failed this chunk; re-dispatch
	// only considers workers outside it.
	attempted map[string]bool
	// lastErr is the most recent dispatch failure, reported if the chunk
	// falls back to local execution.
	lastErr error
	// stealable marks a requeued chunk: it already failed somewhere, so it
	// bypasses the steal-benefit gate.
	stealable bool
	// attempts counts failed dispatches of this chunk; it is the exponent of
	// the next backoff.
	attempts int
	// notBefore is the end of the chunk's current backoff: no worker may
	// take it earlier. Orphan detection ignores it — a chunk no worker can
	// serve goes to the local executor immediately, backing off or not.
	notBefore time.Time
	// exhausted marks a chunk the campaign may no longer retry remotely
	// (retry budget spent): only the local executor will serve it.
	exhausted bool
}

// chunkCampaign splits the cell index space into dispatchable chunks of at
// most size cells. Chunk boundaries never cross a family boundary (the
// FamilyKey derived from each cell's workload; empty cache keys and
// non-derivable workloads count as family-less), and family runs longer than
// size split into balanced pieces — so a StreamIt campaign yields
// family-pure chunks that affinity routing can pin to one worker's warm
// cache, while uniquely-keyed panels (random SPGs) degrade to per-family
// (per-cell) chunks that spread by work stealing alone.
func chunkCampaign(cells []Cell, size int) []*chunk {
	if size <= 0 {
		size = DefaultChunkCells
	}
	family := func(c Cell) string {
		if c.Spec.CacheKey == "" {
			return ""
		}
		key, err := c.Spec.Workload.FamilyKey()
		if err != nil {
			return ""
		}
		return key
	}
	var chunks []*chunk
	for start := 0; start < len(cells); {
		fam := family(cells[start])
		end := start + 1
		for end < len(cells) && family(cells[end]) == fam {
			end++
		}
		// Split the family run into balanced pieces of at most size cells.
		n := end - start
		pieces := (n + size - 1) / size
		for k := 0; k < pieces; k++ {
			s, e := shardRange(n, pieces, k)
			chunks = append(chunks, &chunk{start: start + s, end: start + e, family: fam})
		}
		start = end
	}
	return chunks
}

// shardRange returns the half-open index range of piece k when n cells are
// split into `shards` balanced contiguous pieces (the first n%shards pieces
// hold one extra cell).
func shardRange(n, shards, k int) (start, end int) {
	size, rem := n/shards, n%shards
	start = k*size + min(k, rem)
	end = start + size
	if k < rem {
		end++
	}
	return start, end
}

// DispatcherStats is a point-in-time snapshot of a dispatcher's (or the
// process-lifetime DispatcherTotals') scheduling counters.
type DispatcherStats struct {
	// Chunks counts every chunk served, remotely or locally.
	Chunks int64 `json:"chunks"`
	// RemoteChunks counts chunks served by a worker.
	RemoteChunks int64 `json:"remote_chunks"`
	// Redispatches counts chunks that failed on one worker and were then
	// served by a different worker — the recovery path that used to collapse
	// straight to local execution.
	Redispatches int64 `json:"redispatches"`
	// LocalFallbacks counts chunks executed on the local executor after every
	// healthy worker failed them (or none remained).
	LocalFallbacks int64 `json:"local_fallbacks"`
	// Steals counts chunks served by a worker other than their affinity
	// owner — idle workers overriding affinity so nobody starves.
	Steals int64 `json:"steals"`
	// Retries counts dispatch attempts consumed from the retry budget: every
	// time a failed chunk was requeued for another remote attempt.
	Retries int64 `json:"retries"`
	// RetryBudget is the campaign's total retry allowance (0 when the
	// snapshot aggregates many campaigns, as DispatcherTotals does). Once
	// Retries reaches it, further failures go straight to the local executor.
	RetryBudget int64 `json:"retry_budget,omitempty"`
	// WorkerChunks attributes served chunks to worker URLs.
	WorkerChunks map[string]int64 `json:"worker_chunks,omitempty"`
	// WorkerEWMAMillis is the per-worker exponentially-weighted moving
	// average of remote chunk service times, in milliseconds — the estimate
	// the steal-benefit gate (DefaultStealMinBenefit) weighs backlogs with.
	WorkerEWMAMillis map[string]float64 `json:"worker_ewma_millis,omitempty"`
}

// stealEWMAAlpha is the weight of the newest service-time sample in the
// per-worker EWMA: high enough to track a worker that suddenly slows down
// within a few chunks, low enough that one outlier chunk does not flip the
// steal policy.
const stealEWMAAlpha = 0.3

// dispatchCounters is the shared counter implementation behind per-campaign
// dispatcher stats and the process-lifetime totals.
type dispatchCounters struct {
	chunks, remote, redispatch, local, steals, retries atomic.Int64

	mu        sync.Mutex
	perWorker map[string]int64
	// ewma is the per-worker EWMA of remote chunk service times in
	// milliseconds (guarded by mu); absent until a worker's first success.
	ewma map[string]float64
}

func (c *dispatchCounters) retried() { c.retries.Add(1) }

func (c *dispatchCounters) servedRemote(worker string, redispatched, stolen bool, elapsed time.Duration) {
	c.chunks.Add(1)
	c.remote.Add(1)
	if redispatched {
		c.redispatch.Add(1)
	}
	if stolen {
		c.steals.Add(1)
	}
	c.mu.Lock()
	if c.perWorker == nil {
		c.perWorker = make(map[string]int64)
	}
	c.perWorker[worker]++
	ms := float64(elapsed) / float64(time.Millisecond)
	if c.ewma == nil {
		c.ewma = make(map[string]float64)
	}
	if prev, ok := c.ewma[worker]; ok {
		c.ewma[worker] = prev + float64(stealEWMAAlpha*(ms-prev))
	} else {
		c.ewma[worker] = ms
	}
	c.mu.Unlock()
}

// serviceEWMA returns the worker's EWMA chunk service time; ok is false
// before the worker's first successful chunk.
func (c *dispatchCounters) serviceEWMA(worker string) (time.Duration, bool) {
	c.mu.Lock()
	ms, ok := c.ewma[worker]
	c.mu.Unlock()
	return time.Duration(ms * float64(time.Millisecond)), ok
}

func (c *dispatchCounters) servedLocal(n int64) {
	c.chunks.Add(n)
	c.local.Add(n)
}

func (c *dispatchCounters) stats() DispatcherStats {
	s := DispatcherStats{
		Chunks:         c.chunks.Load(),
		RemoteChunks:   c.remote.Load(),
		Redispatches:   c.redispatch.Load(),
		LocalFallbacks: c.local.Load(),
		Steals:         c.steals.Load(),
		Retries:        c.retries.Load(),
	}
	c.mu.Lock()
	if len(c.perWorker) > 0 {
		s.WorkerChunks = make(map[string]int64, len(c.perWorker))
		for k, v := range c.perWorker {
			s.WorkerChunks[k] = v
		}
	}
	if len(c.ewma) > 0 {
		s.WorkerEWMAMillis = make(map[string]float64, len(c.ewma))
		for k, v := range c.ewma {
			s.WorkerEWMAMillis[k] = v
		}
	}
	c.mu.Unlock()
	return s
}

// DispatcherTotals accumulates scheduling counters across every campaign of
// a process — the coordinator hands one to each per-job dispatcher clone so
// /v1/healthz can report lifetime dispatcher activity next to the per-job
// numbers.
type DispatcherTotals struct{ dispatchCounters }

// Stats snapshots the accumulated totals.
func (t *DispatcherTotals) Stats() DispatcherStats {
	if t == nil {
		return DispatcherStats{}
	}
	return t.stats()
}

// Dispatcher is the cluster scheduler, pull-based and work-stealing, that
// engine.Run hands whole campaigns (Campaign.Dispatcher). The cell index
// space is split into small family-aligned chunks (chunkCampaign) and
// workers pull chunks as they free up — a fast worker simply pulls more
// often, so heterogeneous workers even out without any up-front balancing.
// Placement is cache-affine: each chunk's workload family has a
// rendezvous-hash owner among the currently-healthy workers
// (rendezvousOwner), and a worker prefers chunks it owns, so one family's
// analyses warm one worker's AnalysisCache; an idle worker steals a foreign
// chunk when the owner's expected wait clears DefaultStealMinBenefit, so
// affinity never starves anyone. A chunk whose dispatch fails or times out
// (DefaultRequestTimeout per request) is re-dispatched to a different
// worker after a jittered exponential backoff (retryDelay; a campaign-wide
// budget of DefaultRetryBudgetPerChunk retries per chunk bounds the total)
// — falling back to the local executor when every live (non-dead,
// non-draining) worker has already failed it or the budget is spent — and
// the registry is told about every outcome, so a flapping worker leaves and
// rejoins the rotation between chunks: suspect workers keep pulling (a
// success instantly heals them, repeated failures retire them), which is
// also how per-request registries without a probe loop recover from
// transient errors. Cells are deterministic, so every re-placement is
// bit-identical to a local run (see the dispatcher equivalence tests).
type Dispatcher struct {
	// Registry names and health-tracks the workers. nil or empty runs every
	// campaign on the run's Executor.
	Registry *WorkerRegistry
	// ChunkCells bounds the cells per chunk (0 selects DefaultChunkCells).
	// Chunks never straddle workload-family boundaries regardless.
	ChunkCells int
	// Client issues the worker requests; nil selects http.DefaultClient.
	Client *http.Client
	// OnFallback, when set, observes every chunk that fell back to local
	// execution (called from the scheduling goroutine).
	OnFallback func(start, end int, err error)
	// Totals, when set, additionally accumulates this dispatcher's counters
	// into a process-lifetime aggregate.
	Totals *DispatcherTotals

	// Test seams; zero selects the constant named on each.
	requestTimeout  time.Duration // DefaultRequestTimeout
	retryBaseDelay  time.Duration // DefaultRetryBaseDelay
	retryMaxDelay   time.Duration // DefaultRetryMaxDelay
	retryBudget     int           // DefaultRetryBudgetPerChunk times the chunk count
	stealMinBenefit time.Duration // DefaultStealMinBenefit

	counters dispatchCounters
	// resolvedBudget is the concrete retry allowance of the most recent
	// campaign, surfaced through Stats.
	resolvedBudget atomic.Int64
}

// Stats snapshots this dispatcher's scheduling counters (per-campaign when
// the coordinator clones a dispatcher per job).
func (d *Dispatcher) Stats() DispatcherStats {
	s := d.counters.stats()
	s.RetryBudget = d.resolvedBudget.Load()
	return s
}

// Clone returns a dispatcher with the same configuration (sharing the
// registry and totals) and fresh per-campaign counters.
func (d *Dispatcher) Clone() *Dispatcher {
	return &Dispatcher{
		Registry:   d.Registry,
		ChunkCells: d.ChunkCells,
		Client:     d.Client,
		OnFallback: d.OnFallback,
		Totals:     d.Totals,
	}
}

// schedulerPoll is how often idle scheduling loops re-check registry state
// (worker rejoins, backoff expiry, late registrations); queue changes wake
// them immediately.
const schedulerPoll = 15 * time.Millisecond

// executeCampaign runs the campaign's cells on a registry with workers:
// chunk, dispatch pull-based with affinity and stealing, re-dispatch
// failures, fall back locally only when no healthy worker can take a chunk.
// local runs the given cell indexes on the campaign's executor (recording
// each result itself) and record is the concurrency-safe sink for remote
// results; exactly one result per started cell is recorded, locally or as a
// remotely computed CellResult carrying the cell's index. A cancelled
// context stops further dispatch, and executeCampaign returns its error
// after draining in-flight work, leaving unstarted cells unrecorded.
func (d *Dispatcher) executeCampaign(ctx context.Context, cells []Cell, local func(idx []int) error, record func(CellResult)) error {
	run := &dispatchRun{
		d:      d,
		ctx:    ctx,
		cells:  cells,
		local:  local,
		record: record,
		wake:   make(chan struct{}),
		loops:  make(map[string]bool),
	}
	run.pending = chunkCampaign(cells, d.ChunkCells)
	run.remaining = len(run.pending)
	run.budget = d.retryBudget
	if run.budget <= 0 {
		run.budget = DefaultRetryBudgetPerChunk * len(run.pending)
	}
	d.resolvedBudget.Store(int64(run.budget))
	run.supervise()
	run.wg.Wait()
	return ctx.Err()
}

// dispatchRun is the per-campaign scheduling state: a pending-chunk queue
// guarded by one mutex, a broadcast channel waking idle loops on every queue
// change, and one pull loop per registered worker.
type dispatchRun struct {
	d      *Dispatcher
	ctx    context.Context
	cells  []Cell
	local  func(idx []int) error
	record func(CellResult)

	mu        sync.Mutex
	wake      chan struct{} // closed and replaced on every queue change
	pending   []*chunk
	remaining int // chunks not yet completed (pending + in flight)
	// budget is the total remote retries the campaign may spend — resolved
	// once in executeCampaign before supervise() starts any loop, immutable
	// afterwards, so reads need no lock.
	budget  int
	retries int // guarded by mu; remote retries spent so far
	loops   map[string]bool
	wg      sync.WaitGroup
}

// bcastLocked wakes every waiting loop. Callers hold mu.
func (r *dispatchRun) bcastLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

// supervise is the campaign's scheduling main loop: it keeps one pull loop
// alive per registered worker (spawning loops for workers that register
// mid-campaign), drains chunks that no healthy worker can serve onto the
// local executor, and returns when every chunk is done or the context is
// cancelled.
func (r *dispatchRun) supervise() {
	for {
		if r.ctx.Err() != nil {
			return
		}
		r.mu.Lock()
		if r.remaining == 0 {
			r.mu.Unlock()
			return
		}
		for _, u := range r.d.Registry.URLs() {
			if !r.loops[u] {
				r.loops[u] = true
				r.wg.Add(1)
				go r.workerLoop(u)
			}
		}
		orphans := r.takeLocalEligibleLocked(r.availableWorkers())
		wake := r.wake
		r.mu.Unlock()
		if len(orphans) > 0 {
			r.runLocal(orphans)
			continue
		}
		select {
		case <-wake:
		case <-r.ctx.Done():
			return
		case <-time.After(schedulerPoll):
		}
	}
}

// availableWorkers returns the workers the scheduler may still try: every
// registered worker not yet dead (open breaker) and not draining. Suspect
// workers count — they keep pulling chunks (one success heals them,
// three failures finish them), so a transient failure or a momentary
// all-suspect blip never drains a campaign to local execution. Draining
// workers do not: they announced they will stop serving, so giving them new
// chunks only manufactures failures.
func (r *dispatchRun) availableWorkers() []string {
	infos := r.d.Registry.Workers()
	out := make([]string, 0, len(infos))
	for _, w := range infos {
		if w.State != WorkerDead && !w.Draining {
			out = append(out, w.URL)
		}
	}
	return out
}

// takeLocalEligibleLocked removes and returns every pending chunk that no
// available (non-dead, non-draining) worker can still serve — each already
// failed it, every worker is dead or draining, or the retry budget retired
// the chunk from remote dispatch. Callers hold mu.
func (r *dispatchRun) takeLocalEligibleLocked(available []string) []*chunk {
	var eligible []*chunk
	keep := r.pending[:0]
	for _, c := range r.pending {
		viable := false
		if !c.exhausted {
			for _, w := range available {
				if !c.attempted[w] {
					viable = true
					break
				}
			}
		}
		if viable {
			keep = append(keep, c)
		} else {
			eligible = append(eligible, c)
		}
	}
	r.pending = keep
	return eligible
}

// runLocal executes orphaned chunks on the campaign's executor as one batch,
// family-interleaved like a campaign without workers, so a fully-degraded
// cluster still runs at the executor's full parallelism.
func (r *dispatchRun) runLocal(orphans []*chunk) {
	var idx []int
	for _, c := range orphans {
		if r.d.OnFallback != nil {
			r.d.OnFallback(c.start, c.end, c.lastErr)
		}
		for i := c.start; i < c.end; i++ {
			idx = append(idx, i)
		}
	}
	_ = r.local(idx)
	if r.ctx.Err() != nil {
		return
	}
	r.d.counters.servedLocal(int64(len(orphans)))
	if r.d.Totals != nil {
		r.d.Totals.servedLocal(int64(len(orphans)))
	}
	r.mu.Lock()
	r.remaining -= len(orphans)
	r.bcastLocked()
	r.mu.Unlock()
}

// workerLoop is one worker's pull loop: take the next chunk this worker
// should serve (own affinity first, steals when idle), ship it, and report
// the outcome. The loop parks while its worker is unhealthy and resumes when
// it rejoins; it exits when the campaign completes, the context is
// cancelled, or the worker is deregistered.
func (r *dispatchRun) workerLoop(worker string) {
	defer r.wg.Done()
	defer func() {
		r.mu.Lock()
		delete(r.loops, worker)
		r.mu.Unlock()
	}()
	for {
		c, stolen := r.next(worker)
		if c == nil {
			return
		}
		specs := make([]CellSpec, c.end-c.start)
		for i := range specs {
			specs[i] = r.cells[c.start+i].Spec
		}
		reqStart := time.Now()
		results, err := postCellRange(r.ctx, r.d.Client, worker, specs, r.d.requestTimeout)
		elapsed := time.Since(reqStart)
		if err == nil {
			r.d.Registry.ReportSuccess(worker)
			for j, w := range results {
				r.record(w.CellResult(c.start + j))
			}
			redispatched := len(c.attempted) > 0
			r.d.counters.servedRemote(worker, redispatched, stolen, elapsed)
			if r.d.Totals != nil {
				r.d.Totals.servedRemote(worker, redispatched, stolen, elapsed)
			}
			r.mu.Lock()
			r.remaining--
			r.bcastLocked()
			r.mu.Unlock()
			continue
		}
		if r.ctx.Err() != nil {
			// Campaign cancelled, not worker lost: leave the chunk
			// unrecorded, as the executor contract requires.
			return
		}
		r.d.Registry.ReportFailure(worker, err)
		if c.attempted == nil {
			c.attempted = make(map[string]bool)
		}
		c.attempted[worker] = true
		c.lastErr = err
		c.stealable = true
		c.attempts++
		r.mu.Lock()
		if r.retries < r.budget {
			// Spend one retry: the chunk re-enters the queue after a jittered
			// backoff instead of hitting the next worker immediately.
			r.retries++
			r.d.counters.retried()
			if r.d.Totals != nil {
				r.d.Totals.retried()
			}
			c.notBefore = time.Now().Add(retryDelay(c.start, c.attempts, r.d.retryBaseDelay, r.d.retryMaxDelay))
		} else {
			// Budget spent: retire the chunk from remote dispatch — the
			// supervisor routes exhausted chunks to the local executor.
			c.exhausted = true
		}
		r.pending = append(r.pending, c)
		r.bcastLocked()
		r.mu.Unlock()
	}
}

// next blocks until there is a chunk this worker should serve, returning it
// plus whether taking it overrides another healthy worker's affinity (a
// steal). nil means the loop should exit.
func (r *dispatchRun) next(worker string) (*chunk, bool) {
	for {
		if r.ctx.Err() != nil {
			return nil, false
		}
		r.mu.Lock()
		if r.remaining == 0 {
			r.mu.Unlock()
			return nil, false
		}
		state, registered := r.d.Registry.State(worker)
		if !registered {
			r.mu.Unlock()
			return nil, false
		}
		// Healthy workers pull normally; suspect workers pull too (with no
		// affinity ownership), so one successful chunk heals them even in a
		// registry with no probe loop. Dead workers park until the probe
		// loop or a re-registration revives them; draining workers park
		// until they re-register or deregister.
		if state != WorkerDead && !r.d.Registry.IsDraining(worker) {
			if c, stolen := r.takeLocked(worker, r.d.Registry.Healthy()); c != nil {
				r.mu.Unlock()
				return c, stolen
			}
		}
		wake := r.wake
		r.mu.Unlock()
		select {
		case <-wake:
		case <-r.ctx.Done():
			return nil, false
		case <-time.After(schedulerPoll):
		}
	}
}

// takeLocked picks this worker's next chunk under mu: first a chunk it owns
// (or that owns nobody), then a steal worth its cost: the steal-benefit gate
// (DefaultStealMinBenefit) skips chunks whose healthy owner would reach them
// quickly anyway, judged by the owner's pending backlog times the EWMA of
// its recent chunk service times. Ownership is recomputed
// against the current healthy set on every take (a suspect worker owns
// nothing, so its takes are steals), which is what re-routes an unhealthy
// worker's families to their rendezvous successor and hands them back on
// recovery.
func (r *dispatchRun) takeLocked(worker string, healthy []string) (*chunk, bool) {
	steal := -1
	now := time.Now()
	// backlogs caches per-owner pending-queue depths for the benefit gate;
	// computed at most once per owner per take.
	var backlogs map[string]int
	ownerBacklog := func(owner string) int {
		if b, ok := backlogs[owner]; ok {
			return b
		}
		b := 0
		for _, c := range r.pending {
			if !c.exhausted && !c.attempted[owner] && rendezvousOwner(c.family, healthy) == owner {
				b++
			}
		}
		if backlogs == nil {
			backlogs = make(map[string]int)
		}
		backlogs[owner] = b
		return b
	}
	for i, c := range r.pending {
		if c.attempted[worker] || c.exhausted || now.Before(c.notBefore) {
			continue
		}
		owner := rendezvousOwner(c.family, healthy)
		if owner == "" || owner == worker {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return c, false
		}
		// Requeued chunks already failed somewhere and bypass the benefit
		// gate — waiting on a flaky owner is never the cheap option.
		if steal < 0 && (c.stealable || r.stealWorth(owner, ownerBacklog(owner))) {
			steal = i
		}
	}
	if steal >= 0 {
		c := r.pending[steal]
		r.pending = append(r.pending[:steal], r.pending[steal+1:]...)
		return c, true
	}
	return nil, false
}

// stealWorth is the steal-benefit predicate: stealing from owner is worth it
// when the owner's expected time to drain its backlog (queue depth times its
// EWMA chunk service time) meets DefaultStealMinBenefit. With no service-time
// sample yet the gate allows the steal — the legacy policy — since there is
// no evidence the owner is fast.
func (r *dispatchRun) stealWorth(owner string, backlog int) bool {
	minBenefit := r.d.stealMinBenefit
	if minBenefit <= 0 {
		minBenefit = DefaultStealMinBenefit
	}
	ewma, ok := r.d.counters.serviceEWMA(owner)
	if !ok {
		return true
	}
	return time.Duration(backlog)*ewma >= minBenefit
}
