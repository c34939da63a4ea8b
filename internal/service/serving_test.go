package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spgcmp/internal/engine"
)

// newServingServer builds a test server with the repeat-traffic fast path
// enabled: a result store plus a one-slot map gate with a queue, so tests
// can hold the slot and observe coalescing deterministically.
func newServingServer(t *testing.T, store *engine.ResultStore) (*httptest.Server, *Server) {
	t.Helper()
	srv := New(Config{
		Cache:         engine.NewAnalysisCache(32),
		Store:         store,
		MaxActiveMaps: 1,
		MaxQueuedMaps: 1,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

const servingMapBody = `{"workload": {"random": {"n": 8, "elevation": 2, "seed": 11, "ccr": 1}}, "p": 2, "q": 2}`

// TestMapCoalescingExactlyOneSolve: N concurrent identical /v1/map requests
// must issue exactly one solve. The map gate's only slot is held while the
// requests arrive, so all of them are provably in flight together: one leads
// the flight (queued on the gate), the rest coalesce onto it; releasing the
// slot lets the single solve run and fan out to every waiter.
func TestMapCoalescingExactlyOneSolve(t *testing.T) {
	store := engine.NewResultStore(64, 0)
	ts, srv := newServingServer(t, store)

	srv.maps.active <- struct{}{} // hold the only solve slot
	const n = 8
	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSONNoFatal(t, ts.URL+"/v1/map", servingMapBody)
			replies <- reply{resp.StatusCode, body}
		}()
	}
	// All n requests must be in flight together before the slot frees: one
	// flight led, n-1 coalesced onto it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.flights.stats()
		if st.Solves == 1 && st.Coalesced == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flights never converged: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	<-srv.maps.active // release: the one solve runs
	wg.Wait()
	close(replies)
	var first []byte
	for r := range replies {
		if r.code != http.StatusOK {
			t.Fatalf("status %d: %s", r.code, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatalf("coalesced responses differ:\n%s\n%s", first, r.body)
		}
	}
	if st := srv.flights.stats(); st.Solves != 1 || st.Coalesced != n-1 {
		t.Fatalf("coalescing counters moved after the flight: %+v", st)
	}
	if st := store.Stats(); st.Puts != 1 {
		t.Fatalf("the single solve should have stored once, got %d puts", st.Puts)
	}

	// A second wave is pure store traffic: no new flights, byte-identical
	// answers.
	resp, body := postJSONNoFatal(t, ts.URL+"/v1/map", servingMapBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, first) {
		t.Fatalf("warm answer diverged (status %d):\n%s\n%s", resp.StatusCode, body, first)
	}
	if st := srv.flights.stats(); st.Solves != 1 {
		t.Fatalf("store hit opened a flight: %+v", st)
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Fatalf("no store hit recorded: %+v", st)
	}
}

// postJSONNoFatal is postJSON without the t.Fatal on transport errors being
// load-bearing inside goroutines (t.Fatal must not run off the test
// goroutine).
func postJSONNoFatal(t *testing.T, url, body string) (*http.Response, []byte) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Errorf("post: %v", err)
		return &http.Response{StatusCode: 0}, nil
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Errorf("read: %v", err)
	}
	return resp, buf.Bytes()
}

// TestMapStoreByteIdentity: /v1/map answers must be byte-identical with the
// result store on and off, cold and warm — the serving half of the
// equivalence bar (the engine half is the experiments store suite).
func TestMapStoreByteIdentity(t *testing.T) {
	off := New(Config{Cache: engine.NewAnalysisCache(32)})
	on := New(Config{Cache: engine.NewAnalysisCache(32), Store: engine.NewResultStore(64, 0)})
	tsOff := httptest.NewServer(off.Handler())
	tsOn := httptest.NewServer(on.Handler())
	t.Cleanup(tsOff.Close)
	t.Cleanup(tsOn.Close)

	bodies := []string{
		`{"workload": {"streamit": "DCT"}, "p": 2, "q": 2}`,
		`{"workload": {"streamit": "DCT", "ccr": 0.5}, "p": 2, "q": 2, "seed": 3}`,
		servingMapBody,
	}
	for _, reqBody := range bodies {
		respOff, wantBody := postJSON(t, tsOff.URL+"/v1/map", reqBody)
		respCold, coldBody := postJSON(t, tsOn.URL+"/v1/map", reqBody)
		respWarm, warmBody := postJSON(t, tsOn.URL+"/v1/map", reqBody)
		if respOff.StatusCode != respCold.StatusCode || respOff.StatusCode != respWarm.StatusCode {
			t.Fatalf("%s: status off=%d cold=%d warm=%d", reqBody, respOff.StatusCode, respCold.StatusCode, respWarm.StatusCode)
		}
		if !bytes.Equal(wantBody, coldBody) {
			t.Fatalf("%s: cold body diverged from store-off:\n%s\n%s", reqBody, coldBody, wantBody)
		}
		if !bytes.Equal(wantBody, warmBody) {
			t.Fatalf("%s: warm body diverged from store-off:\n%s\n%s", reqBody, warmBody, wantBody)
		}
	}
	if st := on.store.Stats(); st.Hits != uint64(len(bodies)) {
		t.Fatalf("expected one warm hit per body, got %+v", st)
	}
}

// TestMapBatch: the batch endpoint answers every item exactly as /v1/map
// would (modulo the per-item status codes a single response can carry), in
// request order, including duplicates and infeasible items.
func TestMapBatch(t *testing.T) {
	store := engine.NewResultStore(64, 0)
	srv := New(Config{Cache: engine.NewAnalysisCache(32), Store: store})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	items := []string{
		`{"workload": {"streamit": "DCT"}, "p": 2, "q": 2}`,
		servingMapBody,
		`{"workload": {"streamit": "DCT"}, "p": 2, "q": 2}`, // duplicate of item 0
	}
	batch := fmt.Sprintf(`{"requests": [%s, %s, %s]}`, items[0], items[1], items[2])
	resp, body := postJSON(t, ts.URL+"/v1/map/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(items) {
		t.Fatalf("%d results for %d items", len(br.Results), len(items))
	}
	for i, item := range items {
		_, single := postJSON(t, ts.URL+"/v1/map", item)
		var want, got bytes.Buffer
		if err := json.Compact(&want, single); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&got, br.Results[i]); err != nil {
			t.Fatal(err)
		}
		if want.String() != got.String() {
			t.Fatalf("item %d diverged from /v1/map:\n%s\n%s", i, got.String(), want.String())
		}
	}
	// Duplicate items agree with each other.
	if string(br.Results[0]) != string(br.Results[2]) {
		t.Fatal("duplicate batch items diverged")
	}
}

// TestMapBatchValidation: malformed batches reject whole, before anything
// executes.
func TestMapBatchValidation(t *testing.T) {
	srv := New(Config{Cache: engine.NewAnalysisCache(8), MaxBatchCells: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	cases := []struct {
		name, body string
	}{
		{"empty", `{"requests": []}`},
		{"oversized", `{"requests": [` + servingMapBody + `,` + servingMapBody + `,` + servingMapBody + `]}`},
		{"bad-item", `{"requests": [{"workload": {"streamit": "NoSuchApp"}, "p": 2, "q": 2}]}`},
		{"bad-grid", `{"requests": [{"workload": {"streamit": "DCT"}, "p": 0, "q": 2}]}`},
		{"bad-random-n", `{"requests": [{"workload": {"random": {"n": 1, "elevation": 1}}, "p": 2, "q": 2}]}`},
		{"random-n-over-limit", `{"requests": [{"workload": {"random": {"n": 2001, "elevation": 1}}, "p": 2, "q": 2}]}`},
		{"unknown-field", `{"requests": [], "nope": 1}`},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/map/batch", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
	}
	if st := srv.flights.stats(); st.Solves != 0 {
		t.Fatalf("a rejected batch solved something: %+v", st)
	}
}

// TestMapQueuedAdmission: with a queue, a burst beyond MaxActiveMaps waits
// instead of shedding, and only traffic beyond active+queued answers 429 —
// the generalized admission-control semantics.
func TestMapQueuedAdmission(t *testing.T) {
	ts, srv := newServingServer(t, nil) // 1 active slot + 1 queued
	srv.maps.active <- struct{}{}       // hold the slot

	// First request queues (distinct workload: no coalescing in play).
	type reply struct {
		code int
	}
	first := make(chan reply, 1)
	go func() {
		resp, _ := postJSONNoFatal(t, ts.URL+"/v1/map", `{"workload": {"random": {"n": 6, "elevation": 2, "seed": 1, "ccr": 1}}, "p": 2, "q": 2}`)
		first <- reply{resp.StatusCode}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.maps.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Second distinct request: active full, queue full -> immediate 429.
	resp, body := postJSON(t, ts.URL+"/v1/map", `{"workload": {"random": {"n": 6, "elevation": 2, "seed": 2, "ccr": 1}}, "p": 2, "q": 2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated gate answered %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	<-srv.maps.active // release: the queued request solves
	if r := <-first; r.code != http.StatusOK {
		t.Fatalf("queued request answered %d, want 200", r.code)
	}
}

// TestHealthzServingStats: the health endpoint surfaces result-store and
// coalescing counters when the store is enabled, and omits the store section
// when it is not.
func TestHealthzServingStats(t *testing.T) {
	store := engine.NewResultStore(64, 0)
	srv := New(Config{Cache: engine.NewAnalysisCache(8), Store: store})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	postJSON(t, ts.URL+"/v1/map", servingMapBody) // solve + put
	postJSON(t, ts.URL+"/v1/map", servingMapBody) // hit

	var hz struct {
		Status      string                   `json:"status"`
		ResultStore *engine.ResultStoreStats `json:"result_store"`
		Coalescing  *coalesceStats           `json:"coalescing"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz %d", code)
	}
	if hz.ResultStore == nil || hz.ResultStore.Puts != 1 || hz.ResultStore.Hits != 1 {
		t.Fatalf("result_store stats wrong: %+v", hz.ResultStore)
	}
	if hz.Coalescing == nil || hz.Coalescing.Solves != 1 {
		t.Fatalf("coalescing stats wrong: %+v", hz.Coalescing)
	}

	plain := New(Config{Cache: engine.NewAnalysisCache(8)})
	tsPlain := httptest.NewServer(plain.Handler())
	t.Cleanup(tsPlain.Close)
	var raw map[string]json.RawMessage
	if code := getJSON(t, tsPlain.URL+"/v1/healthz", &raw); code != http.StatusOK {
		t.Fatal("plain healthz")
	}
	if _, ok := raw["result_store"]; ok {
		t.Fatal("store-less healthz advertises a result store")
	}
	if _, ok := raw["coalescing"]; !ok {
		t.Fatal("healthz lost the coalescing section")
	}
}
