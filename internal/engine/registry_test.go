package engine

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// newTestRegistry is an unprobed registry whose workers die after deadAfter
// consecutive failures instead of the default three.
func newTestRegistry(deadAfter int, seeds ...string) *WorkerRegistry {
	r := NewWorkerRegistry(0, seeds...)
	r.deadAfter = deadAfter
	return r
}

// flappableHealthz is a worker stand-in whose /v1/healthz can be switched
// off and on, for driving the registry's state machine deterministically.
func flappableHealthz(t *testing.T) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	var down atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down for maintenance", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &down
}

func workerState(t *testing.T, r *WorkerRegistry, url string) WorkerState {
	t.Helper()
	for _, w := range r.Workers() {
		if w.URL == url {
			return w.State
		}
	}
	t.Fatalf("worker %s not registered", url)
	return 0
}

// TestWorkerRegistryStates drives the full health machine through probes:
// healthy -> suspect on the first failure -> dead after DeadAfter
// consecutive failures -> healthy again on the first success (rejoin).
func TestWorkerRegistryStates(t *testing.T) {
	srv, down := flappableHealthz(t)
	r := newTestRegistry(2, srv.URL)
	ctx := context.Background()

	if got := workerState(t, r, srv.URL); got != WorkerHealthy {
		t.Fatalf("seed state %v, want healthy", got)
	}
	r.Probe(ctx)
	if got := workerState(t, r, srv.URL); got != WorkerHealthy {
		t.Fatalf("after good probe: %v", got)
	}

	down.Store(true)
	r.Probe(ctx)
	if got := workerState(t, r, srv.URL); got != WorkerSuspect {
		t.Fatalf("after one failed probe: %v, want suspect", got)
	}
	if len(r.Healthy()) != 0 {
		t.Fatal("suspect worker still listed healthy")
	}
	r.Probe(ctx)
	if got := workerState(t, r, srv.URL); got != WorkerDead {
		t.Fatalf("after DeadAfter failures: %v, want dead", got)
	}
	if info := r.Workers()[0]; info.ConsecutiveFailures != 2 || info.LastError == "" {
		t.Errorf("dead worker info %+v lacks failure detail", info)
	}

	// Dead workers keep being probed: recovery is one success away.
	down.Store(false)
	r.Probe(ctx)
	if got := workerState(t, r, srv.URL); got != WorkerHealthy {
		t.Fatalf("after recovery probe: %v, want healthy", got)
	}
	if info := r.Workers()[0]; info.ConsecutiveFailures != 0 || info.LastError != "" {
		t.Errorf("recovered worker info %+v retains failure detail", info)
	}
}

// TestWorkerRegistryDispatchReports: ReportFailure/ReportSuccess drive the
// same machine without probes (the per-request ephemeral registry path).
func TestWorkerRegistryDispatchReports(t *testing.T) {
	r := newTestRegistry(3, "http://w1:1", "http://w2:1")
	boom := errors.New("connection refused")
	r.ReportFailure("http://w1:1", boom)
	if got := workerState(t, r, "http://w1:1"); got != WorkerSuspect {
		t.Fatalf("after dispatch failure: %v", got)
	}
	if h := r.Healthy(); len(h) != 1 || h[0] != "http://w2:1" {
		t.Fatalf("healthy = %v", h)
	}
	r.ReportFailure("http://w1:1", boom)
	r.ReportFailure("http://w1:1", boom)
	if got := workerState(t, r, "http://w1:1"); got != WorkerDead {
		t.Fatalf("after three failures: %v", got)
	}
	r.ReportSuccess("http://w1:1")
	if got := workerState(t, r, "http://w1:1"); got != WorkerHealthy {
		t.Fatalf("after success: %v", got)
	}
	// Reports about unknown workers are ignored, not invented.
	r.ReportFailure("http://nobody:1", boom)
	if n := r.Len(); n != 2 {
		t.Fatalf("unknown-worker report grew the registry to %d", n)
	}
}

// TestWorkerRegistryRegistration: registration is idempotent and validating;
// re-registration revives dead workers but leaves suspect ones for the probe
// loop; deregistration removes.
func TestWorkerRegistryRegistration(t *testing.T) {
	r := newTestRegistry(1)
	if err := r.Register("http://w:8080/"); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("http://w:8080"); err != nil || r.Len() != 1 {
		t.Fatalf("trailing-slash re-register: err=%v len=%d", err, r.Len())
	}
	for _, bad := range []string{"", "w:8080", "ftp://w:1", "http://"} {
		if err := r.Register(bad); err == nil {
			t.Errorf("Register(%q) accepted", bad)
		}
	}

	r.ReportFailure("http://w:8080", errors.New("x")) // DeadAfter=1: straight to dead
	if got := workerState(t, r, "http://w:8080"); got != WorkerDead {
		t.Fatalf("state %v", got)
	}
	if err := r.Register("http://w:8080"); err != nil {
		t.Fatal(err)
	}
	if got := workerState(t, r, "http://w:8080"); got != WorkerHealthy {
		t.Fatalf("re-registration left dead worker %v", got)
	}

	r2 := newTestRegistry(2, "http://w:1")
	r2.ReportFailure("http://w:1", errors.New("x"))
	if err := r2.Register("http://w:1"); err != nil {
		t.Fatal(err)
	}
	if got := workerState(t, r2, "http://w:1"); got != WorkerSuspect {
		t.Fatalf("re-registration flipped suspect worker to %v", got)
	}

	// Deregistration normalizes the same way registration does, so any
	// spelling that registers a worker can also remove it.
	if !r.Deregister("HTTP://w:8080/") {
		t.Error("deregister under an equivalent spelling reported false")
	}
	if err := r.Register("http://w:8080"); err != nil {
		t.Fatal(err)
	}
	if !r.Deregister("http://w:8080") {
		t.Error("deregister of known worker reported false")
	}
	if r.Deregister("http://w:8080") {
		t.Error("double deregister reported true")
	}
	if r.Len() != 0 {
		t.Errorf("registry holds %d after deregister", r.Len())
	}
}

// TestWorkerRegistryProbeLoop: Start probes on the interval (a downed worker
// is demoted without any dispatch traffic); Stop halts the loop and both are
// idempotent.
func TestWorkerRegistryProbeLoop(t *testing.T) {
	srv, down := flappableHealthz(t)
	r := NewWorkerRegistry(10*time.Millisecond, srv.URL)
	r.deadAfter = 2
	r.Start()
	r.Start() // idempotent
	defer r.Stop()

	down.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for workerState(t, r, srv.URL) != WorkerDead {
		if time.Now().After(deadline) {
			t.Fatalf("probe loop never demoted the worker (state %v)", workerState(t, r, srv.URL))
		}
		time.Sleep(5 * time.Millisecond)
	}
	down.Store(false)
	for workerState(t, r, srv.URL) != WorkerHealthy {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never revived the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
}

// TestRendezvousOwner: ownership is deterministic, only reassigns families
// that belonged to a removed worker (minimal disruption — the property that
// makes rendezvous routing cache-friendly), and spreads families across
// workers.
func TestRendezvousOwner(t *testing.T) {
	workers := []string{"http://a:1", "http://b:1", "http://c:1"}
	families := make([]string, 60)
	for i := range families {
		families[i] = "streamit/app" + string(rune('A'+i%26)) + "/" + string(rune('0'+i/26))
	}
	counts := make(map[string]int)
	owners := make(map[string]string)
	for _, f := range families {
		o := rendezvousOwner(f, workers)
		if o == "" {
			t.Fatalf("family %q unowned", f)
		}
		if again := rendezvousOwner(f, workers); again != o {
			t.Fatalf("owner of %q not deterministic: %q vs %q", f, o, again)
		}
		owners[f] = o
		counts[o]++
	}
	for _, w := range workers {
		if counts[w] == 0 {
			t.Errorf("worker %s owns no families (distribution %v)", w, counts)
		}
	}
	// Remove one worker: only its families move.
	gone := workers[1]
	survivors := []string{workers[0], workers[2]}
	for _, f := range families {
		o := rendezvousOwner(f, survivors)
		if owners[f] != gone && o != owners[f] {
			t.Errorf("family %q moved from %q to %q though its owner survived", f, owners[f], o)
		}
		if owners[f] == gone && o == gone {
			t.Errorf("family %q still owned by removed worker", f)
		}
	}
	if rendezvousOwner("", workers) != "" {
		t.Error("empty family has an owner")
	}
	if rendezvousOwner("fam", nil) != "" {
		t.Error("empty worker set has an owner")
	}
}

// breakerOf reads a worker's breaker state from the registry snapshot.
func breakerOf(t *testing.T, r *WorkerRegistry, url string) BreakerState {
	t.Helper()
	for _, w := range r.Workers() {
		if w.URL == url {
			return w.Breaker
		}
	}
	t.Fatalf("worker %s not registered", url)
	return 0
}

// TestWorkerBreakerTransitions drives the circuit breaker through its full
// cycle with deterministic Probe sweeps (no sleeps, no probe loop): closed
// while healthy and suspect, open after DeadAfter consecutive failures, and —
// per case — a half-open trial probe that either fails (breaker re-opens) or
// succeeds (breaker closes with full readmission).
func TestWorkerBreakerTransitions(t *testing.T) {
	cases := []struct {
		name        string
		trialUp     bool // whether the half-open trial probe succeeds
		wantBreaker BreakerState
		wantState   WorkerState
		wantHealthy int // len(Healthy()) after the trial
	}{
		{name: "half-open trial fails, breaker re-opens", trialUp: false, wantBreaker: BreakerOpen, wantState: WorkerDead, wantHealthy: 0},
		{name: "half-open trial succeeds, breaker closes", trialUp: true, wantBreaker: BreakerClosed, wantState: WorkerHealthy, wantHealthy: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, down := flappableHealthz(t)
			r := newTestRegistry(2, srv.URL)
			ctx := context.Background()

			if got := breakerOf(t, r, srv.URL); got != BreakerClosed {
				t.Fatalf("fresh worker breaker %v, want closed", got)
			}
			down.Store(true)
			r.Probe(ctx)
			if got := breakerOf(t, r, srv.URL); got != BreakerClosed {
				t.Fatalf("suspect worker breaker %v, want closed (suspects still pass traffic)", got)
			}
			r.Probe(ctx)
			if got := breakerOf(t, r, srv.URL); got != BreakerOpen {
				t.Fatalf("after DeadAfter failures breaker %v, want open", got)
			}

			down.Store(!tc.trialUp)
			r.Probe(ctx) // the half-open trial
			if got := breakerOf(t, r, srv.URL); got != tc.wantBreaker {
				t.Fatalf("after trial probe breaker %v, want %v", got, tc.wantBreaker)
			}
			if got := workerState(t, r, srv.URL); got != tc.wantState {
				t.Fatalf("after trial probe state %v, want %v", got, tc.wantState)
			}
			if got := len(r.Healthy()); got != tc.wantHealthy {
				t.Fatalf("after trial probe len(Healthy()) = %d, want %d", got, tc.wantHealthy)
			}

			// A failed trial leaves the breaker one good probe away from
			// closing; a successful one leaves nothing to re-open it.
			down.Store(false)
			r.Probe(ctx)
			if got := breakerOf(t, r, srv.URL); got != BreakerClosed {
				t.Fatalf("follow-up good probe left breaker %v", got)
			}
		})
	}
}

// TestWorkerBreakerHalfOpenWindow observes the half-open state from inside
// the trial itself: the probed worker's healthz handler snapshots the
// registry mid-probe, so the assertion needs no sleeps and no timing window —
// if the probe is in flight against an open breaker, the snapshot must say
// half-open.
func TestWorkerBreakerHalfOpenWindow(t *testing.T) {
	var regHolder atomic.Pointer[WorkerRegistry]
	var seen atomic.Value // BreakerState observed during the trial probe
	var down atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r := regHolder.Load(); r != nil {
			for _, wi := range r.Workers() {
				seen.Store(wi.Breaker)
			}
		}
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(srv.Close)

	r := newTestRegistry(1, srv.URL)
	regHolder.Store(r)
	ctx := context.Background()

	down.Store(true)
	r.Probe(ctx) // DeadAfter=1: straight to dead, breaker open
	if got := breakerOf(t, r, srv.URL); got != BreakerOpen {
		t.Fatalf("breaker %v, want open", got)
	}

	down.Store(false)
	r.Probe(ctx) // the readmission trial
	if got, ok := seen.Load().(BreakerState); !ok || got != BreakerHalfOpen {
		t.Fatalf("breaker observed during trial probe = %v, want half-open", seen.Load())
	}
	if got := breakerOf(t, r, srv.URL); got != BreakerClosed {
		t.Fatalf("breaker after successful trial %v, want closed", got)
	}
}

// TestWorkerRegistryDraining: a draining worker keeps its health state and
// visibility but leaves the dispatchable set, and re-registration (the worker
// coming back) clears the flag.
func TestWorkerRegistryDraining(t *testing.T) {
	r := newTestRegistry(3, "http://w1:1", "http://w2:1")
	if !r.MarkDraining("http://w1:1/", true) { // normalized like Register
		t.Fatal("MarkDraining of registered worker reported false")
	}
	if r.MarkDraining("http://nobody:1", true) {
		t.Fatal("MarkDraining of unknown worker reported true")
	}
	if h := r.Healthy(); len(h) != 1 || h[0] != "http://w2:1" {
		t.Fatalf("Healthy() with one draining worker = %v", h)
	}
	if got := workerState(t, r, "http://w1:1"); got != WorkerHealthy {
		t.Fatalf("draining flipped health state to %v", got)
	}
	var info WorkerInfo
	for _, w := range r.Workers() {
		if w.URL == "http://w1:1" {
			info = w
		}
	}
	if !info.Draining || info.Breaker != BreakerClosed {
		t.Fatalf("draining worker snapshot %+v", info)
	}

	// Un-mark restores eligibility; so does re-registration.
	if !r.MarkDraining("http://w1:1", false) {
		t.Fatal("un-mark reported false")
	}
	if h := r.Healthy(); len(h) != 2 {
		t.Fatalf("Healthy() after un-mark = %v", h)
	}
	r.MarkDraining("http://w1:1", true)
	if err := r.Register("http://w1:1"); err != nil {
		t.Fatal(err)
	}
	if h := r.Healthy(); len(h) != 2 {
		t.Fatalf("Healthy() after re-registration = %v", h)
	}
}

// TestBreakerStateText: the breaker's wire spellings round-trip, matching the
// /v1/workers JSON contract.
func TestBreakerStateText(t *testing.T) {
	for _, b := range []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen} {
		text, err := b.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back BreakerState
		if err := back.UnmarshalText(text); err != nil || back != b {
			t.Fatalf("round-trip of %v: got %v, err %v", b, back, err)
		}
	}
	var bad BreakerState
	if err := bad.UnmarshalText([]byte("fried")); err == nil {
		t.Fatal("unknown spelling accepted")
	}
}
