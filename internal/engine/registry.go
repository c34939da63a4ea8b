package engine

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// WorkerState is a worker's place in the registry's health machine:
//
//	healthy --failure--> suspect --three consecutive failures--> dead
//	   ^                    |                                      |
//	   +---- any success ---+--------------------------------------+
//
// Healthy workers receive new chunks and own cache-affinity families.
// Suspect workers lose their affinity ownership but may still pull chunks —
// each pull either succeeds (instantly healthy again; this is how an
// unprobed per-request registry heals after a transient 429 or dropped
// connection) or pushes them toward dead. Dead workers receive nothing but
// keep being probed, so a worker that restarts on the same address rejoins
// without re-registering, and a worker that re-registers (POST /v1/workers)
// rejoins immediately.
type WorkerState int

const (
	WorkerHealthy WorkerState = iota
	WorkerSuspect
	WorkerDead
)

// String returns the wire spelling used by /v1/workers and /v1/healthz.
func (s WorkerState) String() string {
	switch s {
	case WorkerHealthy:
		return "healthy"
	case WorkerSuspect:
		return "suspect"
	case WorkerDead:
		return "dead"
	default:
		return fmt.Sprintf("WorkerState(%d)", int(s))
	}
}

// MarshalText makes the state JSON-encode as its string form.
func (s WorkerState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the wire spelling back (clients decoding /v1/workers).
func (s *WorkerState) UnmarshalText(b []byte) error {
	switch string(b) {
	case "healthy":
		*s = WorkerHealthy
	case "suspect":
		*s = WorkerSuspect
	case "dead":
		*s = WorkerDead
	default:
		return fmt.Errorf("engine: unknown worker state %q", b)
	}
	return nil
}

// BreakerState is the circuit-breaker reading of a worker's health machine —
// the operator-facing vocabulary reported by /v1/workers and /v1/healthz:
//
//	closed    the circuit passes traffic: the worker (healthy or suspect)
//	          may receive chunks
//	open      the circuit is tripped: three consecutive failures retired
//	          the worker from dispatch; only probes reach it
//	half-open an open breaker's trial probe is in flight — one success closes
//	          the circuit (full readmission), one failure re-opens it
//
// The breaker is derived, not stored: open <=> WorkerDead, half-open <=> a
// dead worker currently under probe, closed otherwise. Re-registration (POST
// /v1/workers) closes an open breaker immediately — the worker itself is the
// most authoritative probe there is.
type BreakerState int

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the wire spelling used by /v1/workers and /v1/healthz.
func (b BreakerState) String() string {
	switch b {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(b))
	}
}

// MarshalText makes the state JSON-encode as its string form.
func (b BreakerState) MarshalText() ([]byte, error) { return []byte(b.String()), nil }

// UnmarshalText parses the wire spelling back (clients decoding /v1/workers).
func (b *BreakerState) UnmarshalText(data []byte) error {
	switch string(data) {
	case "closed":
		*b = BreakerClosed
	case "open":
		*b = BreakerOpen
	case "half-open":
		*b = BreakerHalfOpen
	default:
		return fmt.Errorf("engine: unknown breaker state %q", data)
	}
	return nil
}

// WorkerInfo is one worker's point-in-time registry snapshot.
type WorkerInfo struct {
	URL   string      `json:"url"`
	State WorkerState `json:"state"`
	// Breaker is the circuit-breaker reading of State (see BreakerState).
	Breaker BreakerState `json:"breaker"`
	// Draining marks a worker that announced a graceful shutdown: it stays
	// in whatever health state it had (its probes still answer), but it is
	// ineligible for new chunks and affinity ownership until it re-registers
	// or deregisters.
	Draining bool `json:"draining,omitempty"`
	// ConsecutiveFailures counts probe/dispatch failures since the last
	// success; three of them turn a suspect worker dead.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// LastError is the most recent probe or dispatch failure, cleared on
	// recovery.
	LastError string `json:"last_error,omitempty"`
}

// Registry health timing: the default probe-sweep spacing, the bound on one
// GET /v1/healthz probe, and how many consecutive failures turn a worker
// dead (the first failure always turns a healthy worker suspect).
const (
	defaultProbeInterval = 5 * time.Second
	probeTimeout         = 2 * time.Second
	defaultDeadAfter     = 3
)

// WorkerRegistry tracks the worker processes of a mapping cluster: which
// exist (static seeds from -worker flags plus runtime self-registrations via
// POST /v1/workers), and which are currently usable (periodic health probes
// against each worker's /v1/healthz, plus dispatch outcomes reported by the
// Dispatcher). It is the membership half of the cluster scheduler: the
// Dispatcher consults Healthy() for every chunk placement, so workers leave
// the rotation within one failed request and rejoin within one probe
// interval of recovering.
type WorkerRegistry struct {
	probeInterval time.Duration
	// deadAfter is defaultDeadAfter; tests change it before first use.
	deadAfter int

	mu      sync.Mutex
	workers map[string]*workerEntry // guarded by mu
	stop    chan struct{}           // guarded by mu; non-nil while the probe loop runs
}

type workerEntry struct {
	url      string
	state    WorkerState
	failures int
	lastErr  string
	// probing marks a health probe currently in flight against this worker;
	// on a dead worker that probe is the breaker's half-open trial.
	probing bool
	// draining marks a worker that announced a graceful shutdown (see
	// WorkerInfo.Draining).
	draining bool
}

// breaker derives the circuit-breaker reading of the entry's state.
func (e *workerEntry) breaker() BreakerState {
	switch {
	case e.state == WorkerDead && e.probing:
		return BreakerHalfOpen
	case e.state == WorkerDead:
		return BreakerOpen
	default:
		return BreakerClosed
	}
}

// NewWorkerRegistry returns a registry holding the given seed workers, all
// initially healthy (they were configured deliberately; the probe loop
// demotes unreachable ones within three sweeps), whose probe loop sweeps
// every probeInterval (<= 0 selects 5 s). Probing does not start
// until Start is called — a registry without a probe loop still tracks
// dispatch-reported failures, which is how per-request ephemeral clusters
// use it.
func NewWorkerRegistry(probeInterval time.Duration, seeds ...string) *WorkerRegistry {
	if probeInterval <= 0 {
		probeInterval = defaultProbeInterval
	}
	r := &WorkerRegistry{probeInterval: probeInterval, deadAfter: defaultDeadAfter, workers: make(map[string]*workerEntry)}
	for _, u := range seeds {
		_ = r.Register(u)
	}
	return r
}

// workerKey normalizes a worker URL to its registry identity (scheme, host
// and path; query/fragment dropped), so Register and Deregister agree on the
// key whatever spelling the caller used.
func workerKey(rawURL string) (string, error) {
	u, err := url.Parse(strings.TrimRight(rawURL, "/"))
	if err != nil {
		return "", fmt.Errorf("engine: worker URL %q: %w", rawURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("engine: worker URL %q is not absolute http(s)", rawURL)
	}
	return u.Scheme + "://" + u.Host + u.Path, nil
}

// Register adds a worker (or re-announces an existing one). A new or dead
// worker turns healthy — registration is the worker saying "I am up", which
// is how a restarted worker rejoins ahead of the next probe — while a
// suspect worker keeps its state for the probe loop to settle (a worker that
// can reach the coordinator is not necessarily reachable from it).
// Registration is idempotent; the URL must parse as absolute http(s).
func (r *WorkerRegistry) Register(rawURL string) error {
	key, err := workerKey(rawURL)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.workers[key]
	if e == nil {
		r.workers[key] = &workerEntry{url: key, state: WorkerHealthy}
		return nil
	}
	if e.state == WorkerDead {
		e.state = WorkerHealthy
		e.failures = 0
		e.lastErr = ""
	}
	// Registration also says "I am serving": a worker that drained and came
	// back (or aborted its drain) rejoins the rotation.
	e.draining = false
	return nil
}

// MarkDraining flags (or unflags) a worker as draining: it keeps its health
// state and keeps answering probes, but Healthy() — and with it affinity
// ownership and new chunk placement — excludes it until it re-registers or
// deregisters. Reports whether the worker is registered.
func (r *WorkerRegistry) MarkDraining(rawURL string, draining bool) bool {
	key, err := workerKey(rawURL)
	if err != nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.workers[key]
	if e == nil {
		return false
	}
	e.draining = draining
	return true
}

// Deregister removes a worker (matched under the same normalization as
// Register); reports whether it was registered.
func (r *WorkerRegistry) Deregister(rawURL string) bool {
	key, err := workerKey(rawURL)
	if err != nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.workers[key]; !ok {
		return false
	}
	delete(r.workers, key)
	return true
}

// IsDraining reports whether the worker is currently marked draining.
func (r *WorkerRegistry) IsDraining(url string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.workers[url]
	return e != nil && e.draining
}

// State returns a worker's current state and whether it is registered.
func (r *WorkerRegistry) State(url string) (WorkerState, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.workers[url]
	if e == nil {
		return 0, false
	}
	return e.state, true
}

// Len returns the number of registered workers in any state.
func (r *WorkerRegistry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.workers)
}

// Healthy returns the URLs of the workers currently eligible for new chunks,
// sorted for deterministic rendezvous routing.
func (r *WorkerRegistry) Healthy() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, e := range r.workers {
		if e.state == WorkerHealthy && !e.draining {
			out = append(out, e.url)
		}
	}
	sort.Strings(out)
	return out
}

// URLs returns every registered worker URL regardless of state, sorted.
func (r *WorkerRegistry) URLs() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.workers))
	for u := range r.workers {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Workers returns a snapshot of every worker, sorted by URL.
func (r *WorkerRegistry) Workers() []WorkerInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, e := range r.workers {
		out = append(out, WorkerInfo{
			URL:                 e.url,
			State:               e.state,
			Breaker:             e.breaker(),
			Draining:            e.draining,
			ConsecutiveFailures: e.failures,
			LastError:           e.lastErr,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// ReportSuccess records a successful probe or chunk dispatch: the worker is
// healthy again from any state.
func (r *WorkerRegistry) ReportSuccess(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.workers[url]; e != nil {
		e.state = WorkerHealthy
		e.failures = 0
		e.lastErr = ""
	}
}

// ReportFailure records a failed probe or chunk dispatch: a healthy worker
// turns suspect immediately, and three consecutive failures turn it
// dead. Both still get probed, so recovery is always one success away.
func (r *WorkerRegistry) ReportFailure(url string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.workers[url]
	if e == nil {
		return
	}
	e.failures++
	if err != nil {
		e.lastErr = err.Error()
	}
	if e.state == WorkerHealthy {
		e.state = WorkerSuspect
	}
	if e.failures >= r.deadAfter {
		e.state = WorkerDead
	}
}

// Probe runs one health sweep: every registered worker's /v1/healthz is
// fetched concurrently under a 2 s timeout and the outcome reported. While a
// dead worker's probe is in flight its breaker reads half-open — the trial
// request that decides between readmission (success closes the breaker) and
// staying retired (failure re-opens it). Exported so tests (and operators
// embedding the registry) can force a deterministic sweep without waiting for
// the probe loop.
func (r *WorkerRegistry) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, u := range r.URLs() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.setProbing(u, true)
			err := r.probeOne(ctx, u)
			if err != nil {
				r.ReportFailure(u, err)
			} else {
				r.ReportSuccess(u)
			}
			r.setProbing(u, false)
		}()
	}
	wg.Wait()
}

// setProbing flags a probe in flight against the worker (the half-open window
// of an open breaker).
func (r *WorkerRegistry) setProbing(url string, probing bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.workers[url]; e != nil {
		e.probing = probing
	}
}

func (r *WorkerRegistry) probeOne(ctx context.Context, worker string) error {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, worker+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe answered %s", resp.Status)
	}
	return nil
}

// Start launches the background probe loop (one sweep every probe
// interval).
// Idempotent; stop it with Stop. Registries that are never started still
// work — they just learn about failures only from dispatch outcomes.
func (r *WorkerRegistry) Start() {
	r.mu.Lock()
	if r.stop != nil {
		r.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	r.stop = stop
	r.mu.Unlock()
	go func() {
		ticker := time.NewTicker(r.probeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				//spglint:ignore ctxflow probes are registry-lifecycle, not request-scoped; the loop is stopped via Stop
				r.Probe(context.Background())
			}
		}
	}()
}

// Stop halts the probe loop started by Start. Idempotent.
func (r *WorkerRegistry) Stop() {
	r.mu.Lock()
	stop := r.stop
	r.stop = nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
	}
}
