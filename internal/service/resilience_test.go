package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/experiments"
	"spgcmp/internal/streamit"
)

// deadlineGatedExecutor parks every run until released but honors context
// cancellation, so a test can hold a campaign past its deadline.
type deadlineGatedExecutor struct {
	release chan struct{}
}

func (g *deadlineGatedExecutor) ExecuteScratch(ctx context.Context, n int, run func(int, *core.Scratch)) error {
	select {
	case <-g.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	return (&engine.PoolExecutor{}).ExecuteScratch(ctx, n, run)
}

// TestRetryAfterOnShedding: every load-shedding rejection — map concurrency,
// campaign cap, range concurrency — carries a Retry-After hint.
func TestRetryAfterOnShedding(t *testing.T) {
	a, err := streamit.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	rangeBody, err := json.Marshal(engine.ExecuteCellsRequest{Cells: []engine.CellSpec{
		experiments.NewStreamItCell(a, 1, 2, 2, 7).Spec,
	}})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("map", func(t *testing.T) {
		srv := New(Config{Cache: engine.NewAnalysisCache(8), MaxActiveMaps: 1})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		// Occupy the only map slot directly; the handler sheds the request
		// before any solve starts.
		srv.maps.active <- struct{}{}
		resp, data := postJSON(t, ts.URL+"/v1/map",
			`{"workload":{"streamit":"DCT","ccr":1},"p":2,"q":2,"seed":1}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-limit map: %d, want 429 (%s)", resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
		<-srv.maps.active
		// Slot freed: the same request now solves.
		if resp2, data2 := postJSON(t, ts.URL+"/v1/map",
			`{"workload":{"streamit":"DCT","ccr":1},"p":2,"q":2,"seed":1}`); resp2.StatusCode != http.StatusOK {
			t.Fatalf("post-release map: %d (%s)", resp2.StatusCode, data2)
		}
	})

	t.Run("campaign", func(t *testing.T) {
		gate := &gatedExecutor{release: make(chan struct{})}
		srv := New(Config{Cache: engine.NewAnalysisCache(8), Executor: gate})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		// Occupy all but one campaign slot directly, so the first submission
		// takes the last one.
		fillGate(srv.campaigns, 1)
		body := `{"streamit":{"p":2,"q":2,"apps":["DCT"],"seed":1}}`
		if resp, data := postJSON(t, ts.URL+"/v1/campaign", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit: %d (%s)", resp.StatusCode, data)
		}
		resp, _ := postJSON(t, ts.URL+"/v1/campaign", body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-limit submit: %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
		close(gate.release)
	})

	t.Run("range", func(t *testing.T) {
		gate := &signalingExecutor{started: make(chan struct{}, 1), release: make(chan struct{})}
		srv := New(Config{Cache: engine.NewAnalysisCache(8), Executor: gate, MaxActiveRanges: 1})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := http.Post(ts.URL+"/v1/cells/execute", "application/json", strings.NewReader(string(rangeBody)))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		<-gate.started
		resp, data := postJSON(t, ts.URL+"/v1/cells/execute", string(rangeBody))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-limit range: %d, want 429 (%s)", resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
		close(gate.release)
		<-done
	})
}

// TestMapDeadline: a /v1/map whose budget expires mid-solve answers 504; the
// two deadline spellings agree; a malformed header is a request error.
func TestMapDeadline(t *testing.T) {
	ts, _ := newTestServer(t)
	// A 16x16 grid with a large random SPG takes far longer than 1 ms, so the
	// deadline always fires first.
	slow := `{"workload":{"random":{"n":40,"elevation":6,"seed":9,"ccr":1}},"p":16,"q":16,"deadline_ms":1}`
	resp, data := postJSON(t, ts.URL+"/v1/map", slow)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired map: %d, want 504 (%s)", resp.StatusCode, data)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/map",
		strings.NewReader(`{"workload":{"random":{"n":40,"elevation":6,"seed":9,"ccr":1}},"p":16,"q":16}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(engine.DeadlineHeader, "1")
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("header-expired map: %d, want 504", hresp.StatusCode)
	}

	bad, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/map",
		strings.NewReader(`{"workload":{"streamit":"DCT","ccr":1},"p":2,"q":2}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Header.Set("Content-Type", "application/json")
	bad.Header.Set(engine.DeadlineHeader, "soon")
	bresp, err := http.DefaultClient.Do(bad)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline header: %d, want 400", bresp.StatusCode)
	}

	if resp2, data2 := postJSON(t, ts.URL+"/v1/map",
		`{"workload":{"streamit":"DCT","ccr":1},"p":2,"q":2,"deadline_ms":-5}`); resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline_ms: %d, want 400 (%s)", resp2.StatusCode, data2)
	}

	// A budget past what a time.Duration holds would wrap negative and
	// expire at once; both spellings reject it instead, on a store miss.
	for _, ms := range []string{"9223372036855", "10000000000000", "9223372036854775807"} {
		const miss = `{"workload":{"random":{"n":12,"elevation":3,"seed":11,"ccr":1}},"p":2,"q":2`
		if resp, data := postJSON(t, ts.URL+"/v1/map", miss+`,"deadline_ms":`+ms+`}`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline_ms %s: %d, want 400 (%s)", ms, resp.StatusCode, data)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/map", strings.NewReader(miss+`}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(engine.DeadlineHeader, ms)
		hresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s header %s: %d, want 400", engine.DeadlineHeader, ms, hresp.StatusCode)
		}
	}
}

// TestCampaignDeadline: a campaign that outlives its deadline_ms fails with
// "deadline exceeded", and its cancellation context stops the executor.
func TestCampaignDeadline(t *testing.T) {
	gate := &deadlineGatedExecutor{release: make(chan struct{})}
	srv := New(Config{Cache: engine.NewAnalysisCache(8), Executor: gate})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, data := postJSON(t, ts.URL+"/v1/campaign",
		`{"streamit":{"p":2,"q":2,"apps":["DCT"],"seed":1},"deadline_ms":30}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var sub campaignSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	st := waitForCampaign(t, ts.URL+sub.StatusURL)
	if st.Status != "failed" || st.Error != "deadline exceeded" {
		t.Fatalf("expired campaign: status %q error %q, want failed / deadline exceeded", st.Status, st.Error)
	}
	// Without a deadline the same gated campaign still runs to completion.
	close(gate.release)
	resp2, data2 := postJSON(t, ts.URL+"/v1/campaign", `{"streamit":{"p":2,"q":2,"apps":["DCT"],"seed":1}}`)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d (%s)", resp2.StatusCode, data2)
	}
	if err := json.Unmarshal(data2, &sub); err != nil {
		t.Fatal(err)
	}
	if st := waitForCampaign(t, ts.URL+sub.StatusURL); st.Status != "done" {
		t.Fatalf("undeadlined campaign ended %q: %s", st.Status, st.Error)
	}
}

// TestCellsExecuteBudgetFloor: a range advertising less remaining budget than
// minRangeBudget is refused with 503 before any work starts — the worker half
// of deadline propagation.
func TestCellsExecuteBudgetFloor(t *testing.T) {
	srv := New(Config{Cache: engine.NewAnalysisCache(8)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	a, err := streamit.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(engine.ExecuteCellsRequest{Cells: []engine.CellSpec{
		experiments.NewStreamItCell(a, 1, 2, 2, 7).Spec,
	}})
	if err != nil {
		t.Fatal(err)
	}
	post := func(deadline string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/cells/execute", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if deadline != "" {
			req.Header.Set(engine.DeadlineHeader, deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := post("5"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("5ms budget under 20ms floor: %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Error("budget rejection without Retry-After")
	}
	if resp := post("0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero budget: %d, want 400", resp.StatusCode)
	}
	if resp := post("later"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed budget: %d, want 400", resp.StatusCode)
	}
	// Past what a time.Duration holds, a budget would wrap negative and be
	// shed as below the floor; it is a request error instead.
	for _, ms := range []string{"9223372036855", "10000000000000", "9223372036854775807"} {
		if resp := post(ms); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s ms budget: %d, want 400", ms, resp.StatusCode)
		}
	}
	if resp := post("60000"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ample budget: %d, want 200", resp.StatusCode)
	}
	if resp := post(""); resp.StatusCode != http.StatusOK {
		t.Fatalf("no budget header: %d, want 200", resp.StatusCode)
	}
}

// TestDrain: StartDrain sheds all new work with 503 while /v1/healthz keeps
// answering 200 with status "draining" — alive for probes, ineligible for
// placement.
func TestDrain(t *testing.T) {
	cache := engine.NewAnalysisCache(8)
	srv := New(Config{Cache: cache})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	a, err := streamit.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	rangeBody, err := json.Marshal(engine.ExecuteCellsRequest{Cells: []engine.CellSpec{
		experiments.NewStreamItCell(a, 1, 2, 2, 7).Spec,
	}})
	if err != nil {
		t.Fatal(err)
	}

	srv.StartDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	for _, c := range []struct{ name, url, body string }{
		{"map", "/v1/map", `{"workload":{"streamit":"DCT","ccr":1},"p":2,"q":2}`},
		{"campaign", "/v1/campaign", `{"streamit":{"p":2,"q":2,"apps":["DCT"],"seed":1}}`},
		{"range", "/v1/cells/execute", string(rangeBody)},
	} {
		resp, data := postJSON(t, ts.URL+c.url, c.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while draining: %d, want 503 (%s)", c.name, resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s drain rejection without Retry-After", c.name)
		}
	}
	var hz healthzResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", code)
	}
	if hz.Status != "draining" {
		t.Errorf("healthz status %q, want draining", hz.Status)
	}
}

// TestWorkerDrainingAnnouncement: POST /v1/workers with draining:true keeps
// the worker registered and probe-alive but marks it draining (visible in the
// worker list, breaker closed); a plain re-registration clears the mark.
func TestWorkerDrainingAnnouncement(t *testing.T) {
	ts, _ := newTestServer(t)
	if resp, data := postJSON(t, ts.URL+"/v1/workers", `{"url":"http://w1:8080"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d (%s)", resp.StatusCode, data)
	}
	resp, data := postJSON(t, ts.URL+"/v1/workers", `{"url":"http://w1:8080","draining":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining announce: %d (%s)", resp.StatusCode, data)
	}
	var list workersResponse
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 1 || !list.Workers[0].Draining {
		t.Fatalf("after announce: %+v, want one draining worker", list.Workers)
	}
	if list.Workers[0].Breaker != engine.BreakerClosed {
		t.Errorf("draining worker breaker %v, want closed (drain is not death)", list.Workers[0].Breaker)
	}
	// A plain keep-alive re-registration clears the drain mark. (Decode into
	// a fresh struct: Unmarshal merges into reused slice elements, which
	// would mask the omitted draining field.)
	if resp, data = postJSON(t, ts.URL+"/v1/workers", `{"url":"http://w1:8080"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register: %d (%s)", resp.StatusCode, data)
	}
	var after workersResponse
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	if len(after.Workers) != 1 || after.Workers[0].Draining {
		t.Fatalf("after re-register: %+v, want drain cleared", after.Workers)
	}
}

// TestCampaignStatusRetries: a campaign dispatched at a faulty worker surfaces
// its retry spend and budget in the status answer, stays within budget, and
// still finishes with a result.
func TestCampaignStatusRetries(t *testing.T) {
	// The worker answers every execute with 500, so each dispatch failure
	// spends a retry until the registry declares it dead and the chunks
	// degrade to the local pool.
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected", http.StatusInternalServerError)
	}))
	t.Cleanup(worker.Close)

	srv := New(Config{Cache: engine.NewAnalysisCache(16)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, data := postJSON(t, ts.URL+"/v1/campaign",
		`{"streamit":{"p":2,"q":2,"apps":["DCT","FFT"],"seed":1},"workers":["`+worker.URL+`"],"chunk_cells":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var sub campaignSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	st := waitForCampaign(t, ts.URL+sub.StatusURL)
	if st.Status != "done" {
		t.Fatalf("campaign ended %q: %s", st.Status, st.Error)
	}
	if st.RetryBudget == 0 {
		t.Fatalf("status carries no retry budget: %+v", st)
	}
	if st.Retries == 0 {
		t.Errorf("no retries recorded against an always-failing worker: %+v", st)
	}
	if st.Retries > st.RetryBudget {
		t.Errorf("retries %d exceed budget %d", st.Retries, st.RetryBudget)
	}
	if st.LocalFallbacks == 0 {
		t.Error("no local fallbacks despite a dead-on-arrival worker")
	}
}
