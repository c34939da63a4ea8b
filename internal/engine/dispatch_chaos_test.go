package engine

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spgcmp/internal/chaos"
)

// TestRetryDelayDeterministic: the backoff is a pure function of (chunk,
// attempt) — replayable, jittered within [0.5, 1.5) of the exponential
// curve, and clamped — and the jitter differs between chunks, so chunks that
// failed together do not retry in lockstep.
func TestRetryDelayDeterministic(t *testing.T) {
	base, max := 10*time.Millisecond, 200*time.Millisecond
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := retryDelay(3, attempt, base, max)
		d2 := retryDelay(3, attempt, base, max)
		if d1 != d2 {
			t.Fatalf("attempt %d: retryDelay not deterministic: %v vs %v", attempt, d1, d2)
		}
		exp := base << uint(attempt-1)
		lo, hi := exp/2, max
		if exp > max {
			lo = max / 2
		}
		if d1 < lo || d1 > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d1, lo, hi)
		}
	}
	if d := retryDelay(0, 1, 0, 0); d < DefaultRetryBaseDelay/2 || d > DefaultRetryMaxDelay {
		t.Fatalf("zero-config delay %v outside defaults", d)
	}
	seen := make(map[time.Duration]bool)
	for start := 0; start < 8; start++ {
		seen[retryDelay(start, 2, base, max)] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter ignores the chunk: eight chunks share one backoff")
	}
}

// TestDispatcherChaosEquivalence is the acceptance bar of the resilience
// layer: under every injected fault class — dropped connections, delays
// pushed past the request deadline, 5xx answers, garbage payloads, truncated
// bodies — a dispatched campaign returns byte-identical results to the
// PoolExecutor, with retries bounded by the campaign's budget.
func TestDispatcherChaosEquivalence(t *testing.T) {
	cells := testCells(t)
	cache := NewAnalysisCache(16)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		rules   []chaos.Rule
		timeout time.Duration // dispatcher RequestTimeout (0 = default)
	}{
		{
			name:  "drop",
			rules: []chaos.Rule{{Fault: chaos.Drop, Path: "/v1/cells/execute", Every: 2}},
		},
		{
			name:    "delay-past-deadline",
			rules:   []chaos.Rule{{Fault: chaos.Delay, Delay: 2 * time.Second, Path: "/v1/cells/execute", Every: 2, Count: 3}},
			timeout: 150 * time.Millisecond,
		},
		{
			name:  "5xx",
			rules: []chaos.Rule{{Fault: chaos.Status, Code: 500, Path: "/v1/cells/execute", Every: 2}},
		},
		{
			name:  "garbage",
			rules: []chaos.Rule{{Fault: chaos.Garbage, Path: "/v1/cells/execute", Every: 2}},
		},
		{
			name:  "partial-body",
			rules: []chaos.Rule{{Fault: chaos.Truncate, Path: "/v1/cells/execute", Every: 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w1 := newClusterWorker(t, cache)
			w2 := newClusterWorker(t, cache)
			faults := &chaos.Transport{Seed: 11, Rules: tc.rules}
			d := &Dispatcher{
				Registry:       NewWorkerRegistry(0, w1.URL(), w2.URL()),
				ChunkCells:     1,
				Client:         &http.Client{Transport: faults},
				requestTimeout: tc.timeout,
				retryBaseDelay: time.Millisecond,
				retryMaxDelay:  20 * time.Millisecond,
			}
			got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, tc.name, got, want)
			if faults.Injected() == 0 {
				t.Fatal("no faults were injected; the schedule tested nothing")
			}
			st := d.Stats()
			if st.RetryBudget == 0 {
				t.Fatalf("stats carry no retry budget: %+v", st)
			}
			if st.Retries > st.RetryBudget {
				t.Fatalf("retries %d exceed budget %d", st.Retries, st.RetryBudget)
			}
			if st.Retries == 0 && st.LocalFallbacks == 0 {
				t.Fatalf("faults injected but neither retried nor fell back: %+v", st)
			}
		})
	}
}

// TestDispatcherRetryBudgetExhaustion: once the campaign's retry budget is
// spent, failed chunks stop being re-dispatched and degrade to the local pool
// — still byte-identical, with the spend visible in the stats.
func TestDispatcherRetryBudgetExhaustion(t *testing.T) {
	cells := testCells(t)
	cache := NewAnalysisCache(16)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	w := newClusterWorker(t, cache)
	// Every execute request fails: each failure either spends a retry or
	// exhausts its chunk.
	faults := &chaos.Transport{Rules: []chaos.Rule{{Fault: chaos.Drop, Path: "/v1/cells/execute", Every: 1}}}
	d := &Dispatcher{
		Registry:       newTestRegistry(100, w.URL()),
		ChunkCells:     1,
		Client:         &http.Client{Transport: faults},
		retryBudget:    2,
		retryBaseDelay: time.Millisecond,
		retryMaxDelay:  5 * time.Millisecond,
	}
	got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "budget-exhaustion", got, want)
	st := d.Stats()
	if st.RetryBudget != 2 {
		t.Errorf("retry budget = %d, want 2", st.RetryBudget)
	}
	if st.Retries != 2 {
		t.Errorf("retries = %d, want the full budget of 2", st.Retries)
	}
	if st.LocalFallbacks != int64(len(cells)) {
		t.Errorf("local fallbacks = %d, want all %d chunks", st.LocalFallbacks, len(cells))
	}
	if st.RemoteChunks != 0 {
		t.Errorf("remote chunks = %d with every request dropped", st.RemoteChunks)
	}
}

// TestDispatcherChaosBreaker: persistent faults trip the worker's circuit
// breaker (open in the registry snapshot), and a probe against the recovered
// worker closes it again — the dispatch path and the probe path drive one
// machine.
func TestDispatcherChaosBreaker(t *testing.T) {
	cells := testCells(t)
	cache := NewAnalysisCache(16)
	w := newClusterWorker(t, cache)
	faults := &chaos.Transport{Rules: []chaos.Rule{{Fault: chaos.Status, Code: 502, Path: "/v1/cells/execute", Every: 1, Count: 3}}}
	reg := NewWorkerRegistry(0, w.URL())
	d := &Dispatcher{
		Registry:       reg,
		ChunkCells:     1,
		Client:         &http.Client{Transport: faults},
		retryBaseDelay: time.Millisecond,
		retryMaxDelay:  5 * time.Millisecond,
	}
	if _, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d}); err != nil {
		t.Fatal(err)
	}
	// Three consecutive injected 502s opened the breaker mid-campaign. (The
	// rule's Count has expired by now, so later probes bypass the faults.)
	infos := reg.Workers()
	if len(infos) != 1 || infos[0].Breaker == BreakerClosed {
		t.Fatalf("breaker after persistent faults = %+v, want open", infos)
	}
	reg.Probe(context.Background())
	if got := breakerOf(t, reg, w.URL()); got != BreakerClosed {
		t.Fatalf("breaker after recovery probe = %v, want closed", got)
	}
}

// TestDispatcherSkipsDrainingWorker: a draining worker is ineligible for new
// chunks — the other worker serves the whole campaign — without being marked
// dead.
func TestDispatcherSkipsDrainingWorker(t *testing.T) {
	cells := testCells(t)
	cache := NewAnalysisCache(16)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	draining := newClusterWorker(t, cache)
	steady := newClusterWorker(t, cache)
	reg := NewWorkerRegistry(0, draining.URL(), steady.URL())
	if !reg.MarkDraining(draining.URL(), true) {
		t.Fatal("MarkDraining failed")
	}
	d := &Dispatcher{Registry: reg, ChunkCells: 1}
	got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "draining", got, want)
	if draining.servedCount() != 0 {
		t.Errorf("draining worker served %d chunks", draining.servedCount())
	}
	if steady.servedCount() == 0 {
		t.Error("steady worker served nothing")
	}
	if st := d.Stats(); st.LocalFallbacks != 0 {
		t.Errorf("%d local fallbacks despite a healthy peer", st.LocalFallbacks)
	}
	if s := workerState(t, reg, draining.URL()); s != WorkerHealthy {
		t.Errorf("draining worker state %v, want healthy (drain is not death)", s)
	}
}

// TestDispatcherDeadlineHeader: every dispatched execute request advertises
// its effective budget — min(campaign deadline, request timeout) — via
// DeadlineHeader, and the advertised value honors whichever is tighter.
func TestDispatcherDeadlineHeader(t *testing.T) {
	cells := testCells(t)
	cache := NewAnalysisCache(16)
	w := newClusterWorker(t, cache)

	var mu sync.Mutex
	var budgets []time.Duration
	proxy := httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			b, ok, err := ParseDeadline(r.Header, 0)
			if err != nil || !ok {
				t.Errorf("execute request without a valid deadline header: ok=%v err=%v", ok, err)
			} else {
				mu.Lock()
				budgets = append(budgets, b)
				mu.Unlock()
			}
		}
		w.srv.Config.Handler.ServeHTTP(wr, r)
	}))
	t.Cleanup(proxy.Close)

	d := &Dispatcher{
		Registry:       NewWorkerRegistry(0, proxy.URL),
		ChunkCells:     1,
		requestTimeout: 5 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if _, err := Run(ctx, nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(budgets) != len(cells) {
		t.Fatalf("recorded %d deadline budgets for %d chunks", len(budgets), len(cells))
	}
	for _, b := range budgets {
		// The 5s request timeout is tighter than the 90s campaign deadline.
		if b <= 0 || b > 5*time.Second {
			t.Errorf("advertised budget %v, want within (0, 5s]", b)
		}
	}
}
