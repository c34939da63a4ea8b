package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spgcmp/internal/core"
	"spgcmp/internal/streamit"
)

// clusterWorker is an in-process spgserve stand-in for dispatcher tests: it
// answers GET /v1/healthz (so the registry can probe it) and the shard
// protocol on POST /v1/cells/execute against its own cache, and can be
// flipped down (both endpoints fail), delayed per request, or set to go
// down automatically after its first served chunk.
type clusterWorker struct {
	srv   *httptest.Server
	cache *AnalysisCache

	mu            sync.Mutex
	down          bool
	delay         time.Duration
	downAfterOne  bool
	served        int
	servedByStart map[int]bool
}

func newClusterWorker(t *testing.T, cache *AnalysisCache) *clusterWorker {
	t.Helper()
	if cache == nil {
		cache = NewAnalysisCache(32)
	}
	cw := &clusterWorker{cache: cache}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		cw.mu.Lock()
		down := cw.down
		cw.mu.Unlock()
		if down {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /v1/cells/execute", func(w http.ResponseWriter, r *http.Request) {
		cw.mu.Lock()
		down, delay := cw.down, cw.delay
		cw.mu.Unlock()
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
		var req ExecuteCellsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results, err := ExecuteSpecs(r.Context(), &PoolExecutor{}, req.Cells, cw.cache, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		cw.mu.Lock()
		cw.served++
		if cw.downAfterOne {
			cw.down = true
		}
		cw.mu.Unlock()
		_ = json.NewEncoder(w).Encode(ExecuteCellsResponse{Results: results})
	})
	cw.srv = httptest.NewServer(mux)
	t.Cleanup(cw.srv.Close)
	return cw
}

func (cw *clusterWorker) URL() string { return cw.srv.URL }

func (cw *clusterWorker) setDown(v bool) {
	cw.mu.Lock()
	cw.down = v
	cw.mu.Unlock()
}

func (cw *clusterWorker) setDelay(d time.Duration) {
	cw.mu.Lock()
	cw.delay = d
	cw.mu.Unlock()
}

func (cw *clusterWorker) servedCount() int {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.served
}

// bigTestCells is a larger wire-codable campaign than testCells — four
// applications with four CCR variants each (sixteen cells, four workload
// families) — big enough for mid-campaign failure/rejoin choreography.
func bigTestCells(t *testing.T) []Cell {
	t.Helper()
	var cells []Cell
	for _, name := range []string{"DCT", "FFT", "Serpent", "FMRadio"} {
		a, err := streamit.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ccr := range []float64{a.CCR, 0.1, 1, 10} {
			cells = append(cells, CellSpec{
				Key:      fmt.Sprintf("%s/ccr=%g", a.Name, ccr),
				CacheKey: "streamit/" + a.Name,
				Workload: WorkloadSpec{StreamIt: a.Name},
				ScaleCCR: true,
				CCR:      ccr,
				P:        2,
				Q:        2,
				Opts:     core.Options{Seed: 90 + int64(len(cells)), DPA1DMaxStates: 60_000},
			}.Cell())
		}
	}
	return cells
}

// cellFamilies returns each cell's affinity family, in cell order.
func cellFamilies(t *testing.T, cells []Cell) []string {
	t.Helper()
	fams := make([]string, len(cells))
	for i, c := range cells {
		key, err := c.Spec.Workload.FamilyKey()
		if err != nil {
			t.Fatal(err)
		}
		fams[i] = key
	}
	return fams
}

// TestChunkCampaign: chunks are contiguous, exhaustive, never straddle a
// family boundary, and long family runs split into balanced pieces.
func TestChunkCampaign(t *testing.T) {
	cells := testCells(t) // 2 families x 2 cells
	fams := cellFamilies(t, cells)
	for _, size := range []int{1, 2, 3, 0, len(cells)} {
		chunks := chunkCampaign(cells, size)
		want := size
		if want <= 0 {
			want = DefaultChunkCells
		}
		next := 0
		for _, c := range chunks {
			if c.start != next || c.end <= c.start {
				t.Fatalf("size=%d: chunk [%d,%d) does not continue at %d", size, c.start, c.end, next)
			}
			if c.end-c.start > want {
				t.Fatalf("size=%d: chunk [%d,%d) oversized", size, c.start, c.end)
			}
			for i := c.start; i < c.end; i++ {
				if fams[i] != c.family {
					t.Fatalf("size=%d: chunk [%d,%d) labeled %q contains cell of family %q", size, c.start, c.end, c.family, fams[i])
				}
			}
			next = c.end
		}
		if next != len(cells) {
			t.Fatalf("size=%d: chunks end at %d of %d", size, next, len(cells))
		}
	}
	// A 4-cell family split at size 3 balances 2+2 rather than 3+1.
	four := bigTestCells(t)[:4]
	chunks := chunkCampaign(four, 3)
	if len(chunks) != 2 || chunks[0].end-chunks[0].start != 2 {
		t.Errorf("4-cell family at size 3 chunked %+v, want balanced halves", chunks)
	}
}

// TestShardRange: the partition is balanced, contiguous and exhaustive.
func TestShardRange(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{{10, 3}, {4, 4}, {7, 2}, {1, 1}, {100, 16}} {
		prevEnd := 0
		for k := 0; k < tc.shards; k++ {
			start, end := shardRange(tc.n, tc.shards, k)
			if start != prevEnd {
				t.Fatalf("n=%d shards=%d: range %d starts at %d, want %d", tc.n, tc.shards, k, start, prevEnd)
			}
			if size := end - start; size < tc.n/tc.shards || size > tc.n/tc.shards+1 {
				t.Fatalf("n=%d shards=%d: range %d unbalanced (%d cells)", tc.n, tc.shards, k, size)
			}
			prevEnd = end
		}
		if prevEnd != tc.n {
			t.Fatalf("n=%d shards=%d: ranges end at %d", tc.n, tc.shards, prevEnd)
		}
	}
}

// TestDispatcherMatchesPool is the acceptance bar's engine half: dispatcher
// campaigns must be bit-identical to the PoolExecutor at every worker count
// and chunk size — 1, the default, and the whole range.
func TestDispatcherMatchesPool(t *testing.T) {
	cells := testCells(t)
	cache := NewAnalysisCache(16)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	workers := []*clusterWorker{
		newClusterWorker(t, cache), newClusterWorker(t, cache),
		newClusterWorker(t, cache), newClusterWorker(t, cache),
	}
	for _, nw := range []int{1, 2, 4} {
		for _, chunkSize := range []int{1, 0, len(cells)} {
			name := fmt.Sprintf("%dworkers/chunk=%d", nw, chunkSize)
			urls := make([]string, nw)
			for i := range urls {
				urls[i] = workers[i].URL()
			}
			d := &Dispatcher{
				Registry:   NewWorkerRegistry(0, urls...),
				ChunkCells: chunkSize,
			}
			got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireSameResults(t, name, got, want)
			st := d.Stats()
			if st.LocalFallbacks != 0 {
				t.Errorf("%s: %d local fallbacks with healthy workers", name, st.LocalFallbacks)
			}
			if st.RemoteChunks == 0 || st.Chunks != st.RemoteChunks {
				t.Errorf("%s: stats %+v, want all chunks remote", name, st)
			}
		}
	}
}

// TestDispatcherAffinity: with stealing effectively disabled (an hour-long
// steal-benefit gate over known-fast owners), every workload family's cells
// land exclusively on its rendezvous owner — each worker's AnalysisCache
// holds exactly its assigned families and nothing else.
func TestDispatcherAffinity(t *testing.T) {
	cells := bigTestCells(t)
	refCache := NewAnalysisCache(16)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: refCache})
	if err != nil {
		t.Fatal(err)
	}
	w1 := newClusterWorker(t, nil)
	w2 := newClusterWorker(t, nil)
	d := &Dispatcher{
		Registry:        NewWorkerRegistry(0, w1.URL(), w2.URL()),
		ChunkCells:      2,
		stealMinBenefit: time.Hour, // healthy owners keep their chunks
	}
	d.counters.ewma = map[string]float64{w1.URL(): 1, w2.URL(): 1}
	got, err := Run(context.Background(), nil, Campaign{Cells: cells, Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "affinity", got, want)
	st := d.Stats()
	if st.Steals != 0 || st.LocalFallbacks != 0 {
		t.Fatalf("stats %+v, want zero steals and fallbacks", st)
	}

	healthy := d.Registry.Healthy()
	owned := map[string]map[string]bool{w1.URL(): {}, w2.URL(): {}}
	for _, fam := range cellFamilies(t, cells) {
		owned[rendezvousOwner(fam, healthy)][fam] = true
	}
	for _, w := range []*clusterWorker{w1, w2} {
		keys := w.cache.Keys()
		if len(keys) != len(owned[w.URL()]) {
			t.Errorf("worker %s cached %v, want exactly its %d assigned families %v",
				w.URL(), keys, len(owned[w.URL()]), owned[w.URL()])
			continue
		}
		for _, k := range keys {
			if !owned[w.URL()][k] {
				t.Errorf("worker %s cached foreign family %q", w.URL(), k)
			}
		}
	}
}

// TestDispatcherRedispatch: a dead worker's chunks, and a mis-keyed
// worker's (answers whose keys do not match the cells sent, rejected by
// postCellRange), are re-dispatched to the surviving worker — never to the
// local pool while a healthy worker remains — and the registry demotes the
// broken one.
func TestDispatcherRedispatch(t *testing.T) {
	cells := testCells(t)
	cache := NewAnalysisCache(16)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	good := newClusterWorker(t, cache)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from now on
	wrongKeys := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ExecuteCellsRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		resp := ExecuteCellsResponse{Results: make([]WireCellResult, len(req.Cells))}
		for i := range resp.Results {
			resp.Results[i].Key = "imposter"
		}
		_ = json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(wrongKeys.Close)

	for _, tc := range []struct{ name, broken string }{
		{"dead", dead.URL},
		{"wrong-keys", wrongKeys.URL},
	} {
		d := &Dispatcher{
			Registry:   newTestRegistry(2, good.URL(), tc.broken),
			ChunkCells: 1,
		}
		got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireSameResults(t, tc.name, got, want)
		st := d.Stats()
		if st.LocalFallbacks != 0 {
			t.Errorf("%s: %d local fallbacks despite a healthy worker", tc.name, st.LocalFallbacks)
		}
		if st.Redispatches == 0 {
			t.Errorf("%s: broken worker's chunks were never re-dispatched", tc.name)
		}
		if st.WorkerChunks[good.URL()] != int64(len(cells)) {
			t.Errorf("%s: surviving worker served %d of %d chunks", tc.name, st.WorkerChunks[good.URL()], len(cells))
		}
		if s := workerState(t, d.Registry, tc.broken); s == WorkerHealthy {
			t.Errorf("%s: broken worker still marked healthy after failed dispatches", tc.name)
		}
	}
}

// TestDispatcherAllWorkersDead: with no healthy worker left, every chunk
// falls back to the local pool — still bit-identical.
func TestDispatcherAllWorkersDead(t *testing.T) {
	cells := testCells(t)
	cache := NewAnalysisCache(16)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	erroring := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(erroring.Close)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()

	var fellBack int
	d := &Dispatcher{
		Registry:   newTestRegistry(1, erroring.URL, dead.URL),
		ChunkCells: 2,
		OnFallback: func(start, end int, err error) {
			if err == nil {
				t.Error("fallback observed without an error")
			}
			fellBack++
		},
	}
	got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "all-dead", got, want)
	st := d.Stats()
	if st.LocalFallbacks == 0 || st.RemoteChunks != 0 {
		t.Errorf("stats %+v, want everything local", st)
	}
	if fellBack == 0 {
		t.Error("OnFallback never observed a chunk")
	}
}

// TestDispatcherFallbackOnCampaignExecutor: a dispatched campaign whose
// only worker fails every range falls back onto the executor handed to Run
// — it runs exactly the fallen-back cells, each once — LocalFallbacks
// counts the fallen-back chunks, and the results are bit-identical to a run
// without a dispatcher.
func TestDispatcherFallbackOnCampaignExecutor(t *testing.T) {
	cells := bigTestCells(t)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(failing.Close)

	var mu sync.Mutex
	fellBack := make(map[int]int)
	chunks := 0
	d := &Dispatcher{
		Registry:   NewWorkerRegistry(0, failing.URL),
		ChunkCells: 2,
		OnFallback: func(start, end int, err error) {
			mu.Lock()
			defer mu.Unlock()
			chunks++
			for i := start; i < end; i++ {
				fellBack[i]++
			}
		},
	}
	var ran atomic.Int64
	recorded := make([]int, len(cells))
	got, err := Run(context.Background(), &countingExecutor{n: &ran}, Campaign{
		Cells:      cells,
		Dispatcher: d,
		OnCell: func(r CellResult) {
			mu.Lock()
			recorded[r.Index]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "fallback", got, want)
	for i := range cells {
		if fellBack[i] != 1 || recorded[i] != 1 {
			t.Errorf("cell %d: fell back %d times, recorded %d times; want once each", i, fellBack[i], recorded[i])
		}
	}
	if ran.Load() != int64(len(fellBack)) {
		t.Errorf("executor ran %d cells, %d fell back", ran.Load(), len(fellBack))
	}
	st := d.Stats()
	if st.LocalFallbacks != int64(chunks) || st.RemoteChunks != 0 || st.Chunks != int64(chunks) {
		t.Errorf("stats %+v, want %d local fallbacks and nothing remote", st, chunks)
	}
}

// TestDispatcherSteal: an idle fast worker steals a slow worker's pending
// chunks, so the campaign finishes without local fallbacks and the fast
// worker serves most of it.
func TestDispatcherSteal(t *testing.T) {
	cells := testCells(t)
	cache := NewAnalysisCache(16)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	slow := newClusterWorker(t, cache)
	slow.setDelay(400 * time.Millisecond)
	fast := newClusterWorker(t, cache)

	d := &Dispatcher{
		Registry:   NewWorkerRegistry(0, slow.URL(), fast.URL()),
		ChunkCells: 1,
	}
	got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "steal", got, want)
	st := d.Stats()
	if st.LocalFallbacks != 0 {
		t.Errorf("%d local fallbacks", st.LocalFallbacks)
	}
	if st.Steals == 0 {
		t.Error("no steals despite one slow worker")
	}
	if st.WorkerChunks[fast.URL()] < 2 {
		t.Errorf("fast worker served only %d chunks: %+v", st.WorkerChunks[fast.URL()], st)
	}
}

// TestDispatcherStealEWMAGate: the steal-benefit gate. With every owner
// known-fast (seeded service-time EWMAs far below the threshold's worth of
// backlog), idle workers must leave affinity intact — zero steals; with the
// gate sized normally and a slow owner, stealing proceeds as before. Either
// way results stay bit-identical to the pool run and the EWMAs surface in
// the stats snapshot.
func TestDispatcherStealEWMAGate(t *testing.T) {
	cells := bigTestCells(t)
	cache := NewAnalysisCache(32)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("fast owners keep affinity", func(t *testing.T) {
		a := newClusterWorker(t, cache)
		b := newClusterWorker(t, cache)
		d := &Dispatcher{
			Registry:   NewWorkerRegistry(0, a.URL(), b.URL()),
			ChunkCells: 1,
			// An hour of required benefit: with any owner EWMA on record, no
			// realistic backlog clears the bar, so the gate must block every
			// steal outright.
			stealMinBenefit: time.Hour,
		}
		d.counters.mu.Lock()
		d.counters.ewma = map[string]float64{a.URL(): 1, b.URL(): 1}
		d.counters.mu.Unlock()
		got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "gated", got, want)
		st := d.Stats()
		if st.Steals != 0 {
			t.Errorf("gate on known-fast owners: %d steals, want 0", st.Steals)
		}
		if st.LocalFallbacks != 0 {
			t.Errorf("%d local fallbacks", st.LocalFallbacks)
		}
		if len(st.WorkerEWMAMillis) != 2 {
			t.Errorf("WorkerEWMAMillis has %d entries, want 2: %+v", len(st.WorkerEWMAMillis), st.WorkerEWMAMillis)
		}
		for url, ms := range st.WorkerEWMAMillis {
			if ms <= 0 {
				t.Errorf("EWMA for %s is %g ms, want > 0", url, ms)
			}
		}
	})

	t.Run("slow owner still stolen from", func(t *testing.T) {
		slow := newClusterWorker(t, cache)
		slow.setDelay(400 * time.Millisecond)
		fast := newClusterWorker(t, cache)
		d := &Dispatcher{
			Registry:   NewWorkerRegistry(0, slow.URL(), fast.URL()),
			ChunkCells: 1,
			// Default-sized gate, with the slow owner's sluggishness already
			// on record: backlog x 500ms clears 20ms immediately, so the
			// idle fast worker must still steal.
			stealMinBenefit: DefaultStealMinBenefit,
		}
		d.counters.mu.Lock()
		d.counters.ewma = map[string]float64{slow.URL(): 500}
		d.counters.mu.Unlock()
		got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "ungated", got, want)
		st := d.Stats()
		if st.Steals == 0 {
			t.Error("no steals despite a slow owner with a recorded EWMA")
		}
		if st.LocalFallbacks != 0 {
			t.Errorf("%d local fallbacks", st.LocalFallbacks)
		}
	})
}

// TestDispatcherSuspectRecovers: in a registry with no probe loop (the
// per-request workers path), a transient failure must not exile the worker
// or drain the campaign to local execution — the suspect worker keeps
// pulling, its next success heals it, and only the chunk it actually failed
// (which no other worker could take) falls back.
func TestDispatcherSuspectRecovers(t *testing.T) {
	cells := testCells(t)
	cache := NewAnalysisCache(16)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	flaky := newClusterWorker(t, cache)
	var failed atomic.Bool
	transient := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && failed.CompareAndSwap(false, true) {
			http.Error(w, "transient blip", http.StatusTooManyRequests)
			return
		}
		flaky.srv.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(transient.Close)

	d := &Dispatcher{
		Registry:   NewWorkerRegistry(0, transient.URL), // never Started: no probes
		ChunkCells: 1,
	}
	got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "suspect-recovers", got, want)
	st := d.Stats()
	if st.LocalFallbacks != 1 {
		t.Errorf("local fallbacks = %d, want exactly the one failed chunk (stats %+v)", st.LocalFallbacks, st)
	}
	if st.RemoteChunks != int64(len(cells)-1) {
		t.Errorf("remote chunks = %d, want %d served by the recovered worker", st.RemoteChunks, len(cells)-1)
	}
	if s, _ := d.Registry.State(transient.URL); s != WorkerHealthy {
		t.Errorf("worker state %v after successful dispatches, want healthy", s)
	}
}

// TestDispatcherRejoin: a worker that dies mid-campaign and comes back is
// demoted by the probe loop, its chunks re-dispatched to the survivor, and
// on recovery it rejoins the rotation and serves again — all without a
// single local fallback.
func TestDispatcherRejoin(t *testing.T) {
	cells := bigTestCells(t)
	cache := NewAnalysisCache(16)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	flaky := newClusterWorker(t, cache)
	flaky.mu.Lock()
	flaky.downAfterOne = true // dies right after its first served chunk
	flaky.mu.Unlock()
	steady := newClusterWorker(t, cache)
	steady.setDelay(40 * time.Millisecond) // slow enough that rejoining matters

	reg := NewWorkerRegistry(10*time.Millisecond, flaky.URL(), steady.URL())
	reg.deadAfter = 2
	reg.Start()
	t.Cleanup(reg.Stop)

	// Revive the flaky worker shortly after it goes down.
	done := make(chan struct{})
	defer close(done)
	go func() {
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				flaky.mu.Lock()
				if flaky.down {
					flaky.downAfterOne = false
					go func() {
						time.Sleep(80 * time.Millisecond)
						flaky.setDown(false)
					}()
					flaky.mu.Unlock()
					return
				}
				flaky.mu.Unlock()
			}
		}
	}()

	d := &Dispatcher{Registry: reg, ChunkCells: 1}
	got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "rejoin", got, want)
	st := d.Stats()
	if st.LocalFallbacks != 0 {
		t.Errorf("%d local fallbacks despite a steady worker", st.LocalFallbacks)
	}
	if flaky.servedCount() < 2 {
		t.Errorf("flaky worker served %d chunks, want pre-death + post-rejoin service", flaky.servedCount())
	}
	if steady.servedCount() == 0 {
		t.Error("steady worker served nothing")
	}
}

// TestDispatcherLateRegistration: a worker registered while the campaign is
// already running gets a pull loop and serves chunks.
func TestDispatcherLateRegistration(t *testing.T) {
	cells := bigTestCells(t)
	cache := NewAnalysisCache(16)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	slow := newClusterWorker(t, cache)
	slow.setDelay(50 * time.Millisecond)
	late := newClusterWorker(t, cache)

	reg := NewWorkerRegistry(0, slow.URL())
	go func() {
		time.Sleep(120 * time.Millisecond)
		_ = reg.Register(late.URL())
	}()
	d := &Dispatcher{Registry: reg, ChunkCells: 1}
	got, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "late-registration", got, want)
	if late.servedCount() == 0 {
		t.Error("late-registered worker never served a chunk")
	}
}

// TestDispatcherLocalPaths: a campaign whose dispatcher has an empty or a
// nil registry runs entirely on the run's executor, every cell exactly
// once, bit-identical to a run without a dispatcher.
func TestDispatcherLocalPaths(t *testing.T) {
	cells := testCells(t)
	want, err := Run(context.Background(), &PoolExecutor{}, Campaign{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *Dispatcher
	}{
		{"empty-registry", &Dispatcher{Registry: NewWorkerRegistry(0)}},
		{"nil-registry", &Dispatcher{}},
	} {
		var ran atomic.Int64
		got, err := Run(context.Background(), &countingExecutor{n: &ran}, Campaign{Cells: cells, Dispatcher: tc.d})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, tc.name, got, want)
		if ran.Load() != int64(len(cells)) {
			t.Errorf("%s: executor ran %d of %d cells", tc.name, ran.Load(), len(cells))
		}
		if st := tc.d.Stats(); st.Chunks != 0 {
			t.Errorf("%s: dispatcher counted %d chunks, want none", tc.name, st.Chunks)
		}
	}
}

// TestDispatcherCancellation: cancelling the campaign context aborts
// in-flight chunks (the workers see their request contexts die), triggers no
// local fallbacks, and surfaces context.Canceled.
func TestDispatcherCancellation(t *testing.T) {
	cells := testCells(t)
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{}`))
	})
	mux.HandleFunc("POST /v1/cells/execute", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		once.Do(cancel) // first chunk to arrive kills the campaign
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	hung := httptest.NewServer(mux)
	t.Cleanup(func() { close(release); hung.Close() })

	d := &Dispatcher{
		Registry:   NewWorkerRegistry(0, hung.URL),
		ChunkCells: 1,
	}
	_, err := Run(ctx, nil, Campaign{Cells: cells, Dispatcher: d})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled dispatcher run returned %v", err)
	}
	if st := d.Stats(); st.LocalFallbacks != 0 {
		t.Errorf("cancellation triggered %d local fallbacks", st.LocalFallbacks)
	}
}

// TestDispatcherTotals: per-campaign clones accumulate into the shared
// process-lifetime totals while keeping their own counters separate.
func TestDispatcherTotals(t *testing.T) {
	cells := testCells(t)
	cache := NewAnalysisCache(16)
	w := newClusterWorker(t, cache)
	totals := &DispatcherTotals{}
	proto := &Dispatcher{
		Registry:   NewWorkerRegistry(0, w.URL()),
		ChunkCells: 1,
		Totals:     totals,
	}
	first := proto.Clone()
	if _, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: first}); err != nil {
		t.Fatal(err)
	}
	second := proto.Clone()
	if _, err := Run(context.Background(), nil, Campaign{Cells: cells, Cache: cache, Dispatcher: second}); err != nil {
		t.Fatal(err)
	}
	if got := first.Stats().Chunks; got != int64(len(cells)) {
		t.Errorf("first campaign chunks = %d, want %d", got, len(cells))
	}
	if got := totals.Stats().Chunks; got != int64(2*len(cells)) {
		t.Errorf("totals chunks = %d, want %d", got, 2*len(cells))
	}
	if got := totals.Stats().WorkerChunks[w.URL()]; got != int64(2*len(cells)) {
		t.Errorf("totals attribute %d chunks to the worker, want %d", got, 2*len(cells))
	}
}
