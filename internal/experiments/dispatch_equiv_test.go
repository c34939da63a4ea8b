package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spgcmp/internal/engine"
	"spgcmp/internal/streamit"
)

// dispatchWorker is an in-process spgserve stand-in for dispatcher tests:
// /v1/healthz for the registry's probes and the shard protocol on
// /v1/cells/execute against the shared cache, with switches for going down
// (everything fails), per-request delay, and dying after the first served
// chunk — the knobs the failure-schedule scenarios need.
type dispatchWorker struct {
	srv   *httptest.Server
	cache *engine.AnalysisCache

	mu           sync.Mutex
	down         bool
	delay        time.Duration
	downAfterOne bool
	served       int
}

func newDispatchWorker(t *testing.T, cache *engine.AnalysisCache) *dispatchWorker {
	t.Helper()
	dw := &dispatchWorker{cache: cache}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		dw.mu.Lock()
		down := dw.down
		dw.mu.Unlock()
		if down {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /v1/cells/execute", func(w http.ResponseWriter, r *http.Request) {
		dw.mu.Lock()
		down, delay := dw.down, dw.delay
		dw.mu.Unlock()
		if down {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		var req engine.ExecuteCellsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results, err := engine.ExecuteSpecs(r.Context(), nil, req.Cells, dw.cache, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		dw.mu.Lock()
		dw.served++
		if dw.downAfterOne {
			dw.down = true
		}
		dw.mu.Unlock()
		_ = json.NewEncoder(w).Encode(engine.ExecuteCellsResponse{Results: results})
	})
	dw.srv = httptest.NewServer(mux)
	t.Cleanup(dw.srv.Close)
	return dw
}

// TestDispatcherEquivalenceStreamIt is the PR's acceptance bar: the cluster
// dispatcher must reduce every StreamIt cell — all applications, all four
// CCR variants, every heuristic at the selected period — bit-identically to
// the PoolExecutor at 1, 2 and 4 workers under chunk sizes 1, default and
// whole-range, and under each injected failure schedule: a dead worker, a
// slow worker, and a worker that dies mid-campaign and rejoins — with zero
// local fallbacks whenever at least one healthy worker remains.
func TestDispatcherEquivalenceStreamIt(t *testing.T) {
	apps := streamit.Suite()
	if testing.Short() {
		apps = apps[:4]
	}
	const seed = 23
	cells := StreamItCells(2, 2, apps, seed)
	cache := NewAnalysisCache(32)
	want, err := engine.Run(context.Background(), &engine.PoolExecutor{},
		engine.Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	wantTable, err := ReduceStreamIt(2, 2, apps, want)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, d *engine.Dispatcher, wantLocal bool) {
		t.Helper()
		results, err := engine.Run(context.Background(), nil, engine.Campaign{Cells: cells, Cache: cache, Dispatcher: d})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReduceStreamIt(2, 2, apps, results)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameCampaign(t, "dispatch/"+name, got, wantTable)
		st := d.Stats()
		if local := st.LocalFallbacks > 0; local != wantLocal {
			t.Errorf("%s: local_fallbacks=%d, want local=%v (stats %+v)", name, st.LocalFallbacks, wantLocal, st)
		}
	}

	pool := []*dispatchWorker{
		newDispatchWorker(t, cache), newDispatchWorker(t, cache),
		newDispatchWorker(t, cache), newDispatchWorker(t, cache),
	}
	for _, nw := range []int{1, 2, 4} {
		for _, chunk := range []int{1, 0, len(cells)} {
			urls := make([]string, nw)
			for i := range urls {
				urls[i] = pool[i].srv.URL
			}
			check(fmt.Sprintf("%dworkers/chunk=%d", nw, chunk), &engine.Dispatcher{
				Registry:   engine.NewWorkerRegistry(0, urls...),
				ChunkCells: chunk,
			}, false)
		}
	}

	// A dead worker: its chunks re-dispatch to the healthy one, never local.
	deadSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadSrv.Close()
	healthy := newDispatchWorker(t, cache)
	deadD := &engine.Dispatcher{
		Registry:   engine.NewWorkerRegistry(0, healthy.srv.URL, deadSrv.URL),
		ChunkCells: 1,
	}
	check("dead-worker", deadD, false)
	if st := deadD.Stats(); st.Redispatches == 0 {
		t.Errorf("dead-worker schedule shows no redispatches: %+v", st)
	}

	// A slow worker: stealing drains its backlog through the fast one.
	slow := newDispatchWorker(t, cache)
	slow.mu.Lock()
	slow.delay = 250 * time.Millisecond
	slow.mu.Unlock()
	fast := newDispatchWorker(t, cache)
	slowD := &engine.Dispatcher{
		Registry:   engine.NewWorkerRegistry(0, slow.srv.URL, fast.srv.URL),
		ChunkCells: 1,
	}
	check("slow-worker", slowD, false)

	// A worker that dies after its first chunk and rejoins moments later:
	// the probe loop demotes it, redispatch covers its in-flight loss, and
	// recovery puts it back in rotation — still zero local fallbacks.
	flaky := newDispatchWorker(t, cache)
	flaky.mu.Lock()
	flaky.downAfterOne = true
	flaky.mu.Unlock()
	steady := newDispatchWorker(t, cache)
	steady.mu.Lock()
	steady.delay = 25 * time.Millisecond
	steady.mu.Unlock()
	reg := engine.NewWorkerRegistry(10*time.Millisecond, flaky.srv.URL, steady.srv.URL)
	reg.Start()
	t.Cleanup(reg.Stop)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				flaky.mu.Lock()
				if flaky.down {
					flaky.downAfterOne = false
					go func() {
						time.Sleep(60 * time.Millisecond)
						flaky.mu.Lock()
						flaky.down = false
						flaky.mu.Unlock()
					}()
					flaky.mu.Unlock()
					return
				}
				flaky.mu.Unlock()
			}
		}
	}()
	check("die-rejoin", &engine.Dispatcher{Registry: reg, ChunkCells: 1}, false)
	flaky.mu.Lock()
	servedByFlaky := flaky.served
	flaky.mu.Unlock()
	if servedByFlaky < 2 {
		t.Errorf("rejoining worker served %d chunks, want pre-death and post-rejoin service", servedByFlaky)
	}
}

// TestDispatcherEquivalenceRandom: the same property over a random-SPG
// panel, where cells are uniquely keyed (no family sharing, so one chunk per
// cell) and the reducer owns the aggregation arithmetic.
func TestDispatcherEquivalenceRandom(t *testing.T) {
	cfg := RandomConfig{
		N: 25, P: 2, Q: 2, CCR: 1,
		MinElevation: 1, MaxElevation: 3, GraphsPerElev: 3, Seed: 29,
	}
	cells, err := RandomCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewAnalysisCache(16)
	results, err := engine.Run(context.Background(), &engine.PoolExecutor{},
		engine.Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReduceRandom(cfg, results)
	if err != nil {
		t.Fatal(err)
	}
	worker := newDispatchWorker(t, cache)
	d := &engine.Dispatcher{Registry: engine.NewWorkerRegistry(0, worker.srv.URL)}
	results, err = engine.Run(context.Background(), nil, engine.Campaign{Cells: cells, Cache: cache, Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReduceRandom(cfg, results)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range got.Points {
		wpt := want.Points[i]
		for _, name := range HeuristicNames {
			if pt.MeanInvNorm[name] != wpt.MeanInvNorm[name] || pt.Failures[name] != wpt.Failures[name] {
				t.Errorf("elevation %d, %s: dispatch (%v, %d) vs pool (%v, %d)",
					pt.Elevation, name, pt.MeanInvNorm[name], pt.Failures[name],
					wpt.MeanInvNorm[name], wpt.Failures[name])
			}
		}
	}
	if st := d.Stats(); st.LocalFallbacks != 0 || st.RemoteChunks != st.Chunks {
		t.Errorf("stats %+v, want every chunk served remotely", st)
	}
}

// TestDispatcherBuildErrorPropagation: a deterministic workload build
// failure is a result, not a worker failure — it must cross the wire as the
// cell's error (message preserved), served remotely, without a re-dispatch
// or a local fallback.
func TestDispatcherBuildErrorPropagation(t *testing.T) {
	// Elevation 30 on 8 stages is unsatisfiable: generation fails.
	bad := NewRandomCell(8, 30, 3, 1, 2, 2)
	good := NewRandomCell(8, 2, 3, 1, 2, 2)
	cells := []engine.Cell{bad, good}
	cache := NewAnalysisCache(4)
	want, err := engine.Run(context.Background(), nil, engine.Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if want[0].Err == nil {
		t.Fatal("expected a build failure for the unsatisfiable cell")
	}
	worker := newDispatchWorker(t, cache)
	d := &engine.Dispatcher{Registry: engine.NewWorkerRegistry(0, worker.srv.URL)}
	got, err := engine.Run(context.Background(), nil, engine.Campaign{Cells: cells, Cache: cache, Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	worker.mu.Lock()
	served := worker.served
	worker.mu.Unlock()
	if served == 0 {
		t.Fatal("cells were not served remotely")
	}
	if st := d.Stats(); st.LocalFallbacks != 0 || st.Redispatches != 0 {
		t.Errorf("build failure triggered %d local fallbacks, %d redispatches", st.LocalFallbacks, st.Redispatches)
	}
	if got[0].Err == nil || got[0].Err.Error() != want[0].Err.Error() {
		t.Errorf("build error crossed the wire as %v, want %v", got[0].Err, want[0].Err)
	}
	if fmt.Sprint(got[1].Result) != fmt.Sprint(want[1].Result) {
		t.Errorf("sibling cell drifted across the wire")
	}
}

// TestCellCacheKeysAreCanonical: the enumerators' cache keys are exactly
// the engine's FamilyKey, so the worker-side key sanitization of
// ExecuteSpecs is a no-op for honest coordinators — a process serving both
// campaign traffic and shard ranges warms one cache entry per family, and
// the legacy key formats are preserved.
func TestCellCacheKeysAreCanonical(t *testing.T) {
	a, err := streamit.ByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	cell := NewStreamItCell(a, 1, 2, 2, 1)
	key, err := cell.Spec.Workload.FamilyKey()
	if err != nil {
		t.Fatal(err)
	}
	if cell.Spec.CacheKey != key {
		t.Errorf("streamit cache key %q != family key %q", cell.Spec.CacheKey, key)
	}
	if want := "streamit/FFT/n=17/y=1/x=17"; key != want {
		t.Errorf("streamit family key %q, want legacy format %q", key, want)
	}
	rcell := NewRandomCell(20, 3, 5, 0.1, 2, 2)
	rkey, err := rcell.Spec.Workload.FamilyKey()
	if err != nil {
		t.Fatal(err)
	}
	if rcell.Spec.CacheKey != rkey {
		t.Errorf("random cache key %q != family key %q", rcell.Spec.CacheKey, rkey)
	}
}
