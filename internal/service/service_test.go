package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spgcmp/internal/engine"
	"spgcmp/internal/experiments"
	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/streamit"
)

func newTestServer(t *testing.T) (*httptest.Server, *engine.AnalysisCache) {
	t.Helper()
	cache := engine.NewAnalysisCache(32)
	srv := New(Config{Cache: cache, MaxCampaignCells: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, cache
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	var resp healthzResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &resp); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if resp.Status != "ok" {
		t.Errorf("status %q", resp.Status)
	}
	if resp.Cache.Capacity != 32 {
		t.Errorf("cache capacity %d, want 32", resp.Cache.Capacity)
	}
}

func TestMapStreamIt(t *testing.T) {
	ts, cache := newTestServer(t)
	body := `{"workload":{"streamit":"DCT","ccr":1},"p":2,"q":2,"seed":42}`
	resp, data := postJSON(t, ts.URL+"/v1/map", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map status %d: %s", resp.StatusCode, data)
	}
	var mr mapResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Feasible || mr.Best == "" {
		t.Fatalf("map response %+v", mr)
	}
	if len(mr.Result.Outcomes) != len(experiments.HeuristicNames) {
		t.Fatalf("%d outcomes", len(mr.Result.Outcomes))
	}

	// The service answer must be bit-identical to the in-process protocol.
	a, err := streamit.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Solve(experiments.NewStreamItCell(a, 1, 2, 2, 42), nil)
	if math.Float64bits(mr.Result.Period) != math.Float64bits(want.Result.Period) {
		t.Errorf("period %g != %g", mr.Result.Period, want.Result.Period)
	}
	for i, o := range mr.Result.Outcomes {
		w := want.Result.Outcomes[i]
		if o.Heuristic != w.Heuristic || o.OK != w.OK ||
			(o.OK && math.Float64bits(o.Energy) != math.Float64bits(w.Energy)) {
			t.Errorf("outcome %s: %+v != %+v", o.Heuristic, o, w)
		}
	}

	// A second identical request hits the warm cache and still matches.
	before := cache.Stats().Hits
	resp2, data2 := postJSON(t, ts.URL+"/v1/map", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat map status %d", resp2.StatusCode)
	}
	var mr2 mapResponse
	if err := json.Unmarshal(data2, &mr2); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(mr2.Result.Period) != math.Float64bits(mr.Result.Period) {
		t.Error("warm-cache answer drifted")
	}
	if cache.Stats().Hits <= before {
		t.Error("repeat request did not hit the cache")
	}
}

func TestMapRandomWorkload(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/map",
		`{"workload":{"random":{"n":20,"elevation":3,"seed":5,"ccr":10}},"p":4,"q":4,"seed":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map status %d: %s", resp.StatusCode, data)
	}
	var mr mapResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Feasible {
		t.Fatalf("random workload infeasible: %+v", mr)
	}
}

// TestMapMissesDoNotPinAnalyses: one-off /v1/map workloads wait in the
// analysis cache's probation window and never enter its LRU.
func TestMapMissesDoNotPinAnalyses(t *testing.T) {
	ts, cache := newTestServer(t)
	for seed := 1; seed <= 40; seed++ {
		body := fmt.Sprintf(`{"workload":{"random":{"n":10,"elevation":2,"seed":%d,"ccr":1}},"p":2,"q":2,"seed":1}`, seed)
		if resp, data := postJSON(t, ts.URL+"/v1/map", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, data)
		}
	}
	if n := cache.Len(); n != 0 {
		t.Errorf("%d one-off analyses resident, want 0", n)
	}
	var hz healthzResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if hz.Cache.Probation > engine.ProbationWindow || hz.Cache.Misses != 40 || hz.Cache.Promotions != 0 {
		t.Errorf("cache after 40 one-off requests: %+v", hz.Cache)
	}
}

func TestMapErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, body string
		code       int
	}{
		{"malformed", `{"workload":`, http.StatusBadRequest},
		{"unknown field", `{"workload":{"streamit":"DCT"},"p":2,"q":2,"bogus":1}`, http.StatusBadRequest},
		{"unknown app", `{"workload":{"streamit":"NoSuchApp"},"p":2,"q":2}`, http.StatusBadRequest},
		{"no workload", `{"p":2,"q":2}`, http.StatusBadRequest},
		{"both workloads", `{"workload":{"streamit":"DCT","random":{"n":10,"elevation":1}},"p":2,"q":2}`, http.StatusBadRequest},
		{"bad grid", `{"workload":{"streamit":"DCT"},"p":0,"q":2}`, http.StatusBadRequest},
		{"huge grid", `{"workload":{"streamit":"DCT"},"p":64,"q":64}`, http.StatusBadRequest},
		{"bad random n", `{"workload":{"random":{"n":1,"elevation":1}},"p":2,"q":2}`, http.StatusBadRequest},
		{"random n over limit", `{"workload":{"random":{"n":2001,"elevation":1}},"p":2,"q":2}`, http.StatusBadRequest},
		// 50 stages of >= 0.01 Gcycles on a single 1 GHz core cannot meet
		// the 1 s starting period: infeasible, not a request error.
		{"infeasible", `{"workload":{"random":{"n":50,"elevation":1,"seed":3,"ccr":1}},"p":1,"q":1,"seed":1}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/map", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, data)
		}
		if tc.name == "infeasible" {
			var mr mapResponse
			if err := json.Unmarshal(data, &mr); err != nil {
				t.Fatal(err)
			}
			if mr.Feasible {
				t.Error("infeasible answer claims feasibility")
			}
			if len(mr.Result.Outcomes) == 0 {
				t.Error("infeasible answer carries no outcomes")
			}
		}
	}
}

// waitForCampaign polls the status endpoint until the job leaves "running".
func waitForCampaign(t *testing.T, url string) campaignStatusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st campaignStatusResponse
		if code := getJSON(t, url, &st); code != http.StatusOK {
			t.Fatalf("status poll returned %d", code)
		}
		if st.Status != "running" {
			return st
		}
		if st.Done < 0 || st.Done > int64(st.Total) {
			t.Fatalf("progress %d/%d out of range", st.Done, st.Total)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign still running after deadline: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCampaignStreamItRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/campaign",
		`{"streamit":{"p":2,"q":2,"apps":["DCT"],"seed":9}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	var sub campaignSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Total != 4 {
		t.Fatalf("total %d, want 4 CCR cells", sub.Total)
	}
	st := waitForCampaign(t, ts.URL+sub.StatusURL)
	if st.Status != "done" {
		t.Fatalf("campaign ended %q: %s", st.Status, st.Error)
	}
	if st.Done != int64(st.Total) {
		t.Errorf("done %d != total %d", st.Done, st.Total)
	}

	// The embedded result must be the bit-identical campaign table.
	var apps []streamit.App
	a, err := streamit.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	apps = append(apps, a)
	want, err := experiments.RunStreamItWith(2, 2, apps, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var got experiments.StreamItResult
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("%d cells, want %d", len(got.Cells), len(want.Cells))
	}
	for i := range got.Cells {
		g, w := got.Cells[i], want.Cells[i]
		if g.CCRLabel != w.CCRLabel || math.Float64bits(g.Result.Period) != math.Float64bits(w.Result.Period) {
			t.Errorf("cell %d: (%s, %g) vs (%s, %g)", i, g.CCRLabel, g.Result.Period, w.CCRLabel, w.Result.Period)
		}
		for j, o := range g.Result.Outcomes {
			wo := w.Result.Outcomes[j]
			if o.OK != wo.OK || (o.OK && math.Float64bits(o.Energy) != math.Float64bits(wo.Energy)) {
				t.Errorf("cell %d %s: %+v != %+v", i, o.Heuristic, o, wo)
			}
		}
	}
}

func TestCampaignRandomRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/campaign",
		`{"random":{"n":20,"p":2,"q":2,"ccr":1,"max_elevation":2,"graphs_per_elev":2,"seed":11}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	var sub campaignSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Total != 4 {
		t.Fatalf("total %d, want 2 elevations x 2 graphs", sub.Total)
	}
	st := waitForCampaign(t, ts.URL+sub.StatusURL)
	if st.Status != "done" {
		t.Fatalf("campaign ended %q: %s", st.Status, st.Error)
	}
	raw, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var got experiments.RandomResult
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 2 {
		t.Fatalf("%d points, want 2", len(got.Points))
	}
	for _, pt := range got.Points {
		if len(pt.MeanInvNorm) != len(experiments.HeuristicNames) {
			t.Errorf("elevation %d: %d heuristics", pt.Elevation, len(pt.MeanInvNorm))
		}
	}
}

func TestCampaignErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"malformed", `{"streamit":`},
		{"neither", `{}`},
		{"both", `{"streamit":{"p":2,"q":2},"random":{"n":10,"p":2,"q":2,"ccr":1,"max_elevation":1}}`},
		{"unknown app", `{"streamit":{"p":2,"q":2,"apps":["Nope"]}}`},
		{"empty apps", `{"streamit":{"p":2,"q":2,"apps":[]}}`},
		{"bad grid", `{"streamit":{"p":0,"q":2}}`},
		{"bad elevation range", `{"random":{"n":10,"p":2,"q":2,"ccr":1,"min_elevation":5,"max_elevation":2}}`},
		{"too many cells", `{"random":{"n":10,"p":2,"q":2,"ccr":1,"max_elevation":10,"graphs_per_elev":100,"seed":1}}`},
		{"bad random n", `{"random":{"n":1,"p":2,"q":2,"ccr":1,"max_elevation":1}}`},
		{"random n over limit", `{"random":{"n":2001,"p":2,"q":2,"ccr":1,"max_elevation":1}}`},
		// Rejected arithmetically, before any cell is materialized: a
		// response at all proves the server did not try to allocate 2e11
		// cells.
		{"absurd elevation range", `{"random":{"n":10,"p":2,"q":2,"ccr":1,"max_elevation":2000000000,"seed":1}}`},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/campaign", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/campaign/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign id: status %d, want 404", code)
	}
}

// gatedExecutor blocks every Execute until released, so a test can hold a
// campaign in the running state deterministically.
type gatedExecutor struct {
	release chan struct{}
	inner   engine.PoolExecutor
}

func (g *gatedExecutor) Execute(ctx context.Context, n int, run func(i int)) error {
	<-g.release
	return g.inner.Execute(ctx, n, run)
}

// fillGate occupies all but free of the gate's active slots, as concurrent
// holders would.
func fillGate(g *admitGate, free int) {
	for i := free; i < g.capacity(); i++ {
		g.active <- struct{}{}
	}
}

// TestCampaignActiveLimit: submissions beyond maxActiveCampaigns answer 429
// until a running campaign finishes.
func TestCampaignActiveLimit(t *testing.T) {
	gate := &gatedExecutor{release: make(chan struct{})}
	srv := New(Config{
		Cache:    engine.NewAnalysisCache(8),
		Executor: gate,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// Occupy all but one campaign slot directly: one running campaign then
	// saturates the gate.
	fillGate(srv.campaigns, 1)

	body := `{"streamit":{"p":2,"q":2,"apps":["DCT"],"seed":1}}`
	resp, data := postJSON(t, ts.URL+"/v1/campaign", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d (%s)", resp.StatusCode, data)
	}
	var sub campaignSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if resp2, _ := postJSON(t, ts.URL+"/v1/campaign", body); resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: %d, want 429", resp2.StatusCode)
	}
	close(gate.release)
	if st := waitForCampaign(t, ts.URL+sub.StatusURL); st.Status != "done" {
		t.Fatalf("gated campaign ended %q: %s", st.Status, st.Error)
	}
	if resp3, _ := postJSON(t, ts.URL+"/v1/campaign", body); resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("post-completion submit: %d, want 202", resp3.StatusCode)
	}
}

// TestMapReturnsMapping: /v1/map answers carry the winning placement, and it
// rebuilds into a mapping whose authoritative evaluation reproduces the
// reported energy exactly.
func TestMapReturnsMapping(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/map",
		`{"workload":{"streamit":"DCT","ccr":1},"p":2,"q":2,"seed":42}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map status %d: %s", resp.StatusCode, data)
	}
	var mr mapResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Mapping == nil {
		t.Fatal("feasible answer without a winning mapping")
	}
	if mr.Mapping.P != 2 || mr.Mapping.Q != 2 {
		t.Fatalf("mapping targets %dx%d", mr.Mapping.P, mr.Mapping.Q)
	}
	var bestEnergy float64
	for _, o := range mr.Result.Outcomes {
		if o.Heuristic == mr.Best {
			bestEnergy = o.Energy
		}
		if o.OK && o.Mapping == nil {
			t.Errorf("%s: OK outcome without mapping", o.Heuristic)
		}
	}
	pl := platform.XScale(2, 2)
	m, err := mr.Mapping.Mapping(pl)
	if err != nil {
		t.Fatal(err)
	}
	a, err := streamit.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	g, err := a.GraphWithCCR(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapping.Evaluate(g, pl, m, mr.Result.Period)
	if err != nil {
		t.Fatalf("returned mapping does not evaluate: %v", err)
	}
	if math.Float64bits(res.Energy) != math.Float64bits(bestEnergy) {
		t.Errorf("re-evaluated energy %g != reported %g", res.Energy, bestEnergy)
	}
}

// TestCellsExecuteEndpoint: the worker endpoint solves spec ranges on the
// shared engine bit-identically to a local solve, in request order.
func TestCellsExecuteEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	a, err := streamit.ByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	specs := []engine.CellSpec{
		experiments.NewStreamItCell(a, 1, 2, 2, 7).Spec,
		experiments.NewStreamItCell(a, 10, 2, 2, 8).Spec,
	}
	body, err := json.Marshal(engine.ExecuteCellsRequest{Cells: specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/cells/execute", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute status %d: %s", resp.StatusCode, data)
	}
	var out engine.ExecuteCellsResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(specs) {
		t.Fatalf("%d results for %d cells", len(out.Results), len(specs))
	}
	for i, w := range out.Results {
		want := engine.Solve(specs[i].Cell(), nil)
		if w.Key != want.Key || w.Feasible != want.Feasible ||
			math.Float64bits(w.Result.Period) != math.Float64bits(want.Result.Period) {
			t.Errorf("result %d: (%s,%v,%g) vs (%s,%v,%g)",
				i, w.Key, w.Feasible, w.Result.Period, want.Key, want.Feasible, want.Result.Period)
		}
		for j, o := range w.Result.Outcomes {
			wo := want.Result.Outcomes[j]
			if o.Heuristic != wo.Heuristic || o.OK != wo.OK ||
				(o.OK && math.Float64bits(o.Energy) != math.Float64bits(wo.Energy)) {
				t.Errorf("result %d %s: %+v != %+v", i, o.Heuristic, o, wo)
			}
		}
	}

	for _, tc := range []struct{ name, body, names string }{
		{"malformed", `{"cells":`, ""},
		{"empty", `{"cells":[]}`, ""},
		{"no workload", `{"cells":[{"key":"k","p":2,"q":2}]}`, ""},
		{"bad grid", `{"cells":[{"key":"k","workload":{"streamit":"DCT"},"p":0,"q":2}]}`, ""},
		{"huge grid", `{"cells":[{"key":"k","workload":{"streamit":"DCT"},"p":64,"q":64}]}`, ""},
		// Unknown options are rejected by name, not silently ignored.
		{"unknown option", `{"cells":[{"key":"k","workload":{"streamit":"DCT"},"p":2,"q":2,"opts":{"sweep_parallelism":4}}]}`, "sweep_parallelism"},
		// Workloads are StreamIt, random or inline; there are no custom kinds.
		{"custom kind", `{"cells":[{"key":"k","workload":{"kind":"x","params":1},"p":2,"q":2}]}`, `unknown field \"kind\"`},
		// Retired options and weight bounds are unknown fields too.
		{"random trials", `{"cells":[{"key":"k","workload":{"streamit":"DCT"},"p":2,"q":2,"opts":{"random_trials":5}}]}`, `unknown field \"random_trials\"`},
		{"transition budget", `{"cells":[{"key":"k","workload":{"streamit":"DCT"},"p":2,"q":2,"opts":{"dpa1d_max_transitions":10}}]}`, `unknown field \"dpa1d_max_transitions\"`},
		{"weight bounds", `{"cells":[{"key":"k","workload":{"random":{"n":12,"elevation":3,"seed":7,"weight_min":0.5,"weight_max":2}},"p":2,"q":2}]}`, `unknown field \"weight_min\"`},
		// Generation cannot be cancelled, so the stage count is bounded.
		{"random n over limit", `{"cells":[{"key":"k","workload":{"random":{"n":2001,"elevation":3,"seed":7}},"p":2,"q":2}]}`, `needs n \u003c= 2000, got 2001`},
		// The lower bounds /v1/map applies hold for ranges too.
		{"random one stage", `{"cells":[{"key":"k","workload":{"random":{"n":1,"elevation":1,"seed":7}},"p":2,"q":2}]}`, `needs n \u003e= 2, got 1`},
		{"random flat", `{"cells":[{"key":"k","workload":{"random":{"n":5,"elevation":0,"seed":7}},"p":2,"q":2}]}`, `needs elevation \u003e= 1, got 0`},
		{"random negative ccr", `{"cells":[{"key":"k","workload":{"random":{"n":5,"elevation":1,"seed":7,"ccr":-1}},"p":2,"q":2}]}`, `ccr -1 is negative`},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/cells/execute", tc.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), tc.names) {
			t.Errorf("%s: status %d, want 400 naming %q (%s)", tc.name, resp.StatusCode, tc.names, data)
		}
	}
}

// TestCampaignSharded: a campaign submitted with a worker list runs through
// the cluster dispatcher against real worker processes (here: a second
// service instance sharing the cache) and reduces bit-identically to the
// local run. A broken worker raises the redispatch counter — its chunks are
// served by the surviving worker — while local fallbacks stay zero as long
// as one healthy worker remains; only an all-broken worker list falls back
// locally.
func TestCampaignSharded(t *testing.T) {
	ts, cache := newTestServer(t)
	workerSrv := New(Config{Cache: cache, MaxCampaignCells: 64})
	worker := httptest.NewServer(workerSrv.Handler())
	t.Cleanup(worker.Close)
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected failure", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)

	run := func(extra string) campaignStatusResponse {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/campaign",
			`{"streamit":{"p":2,"q":2,"apps":["DCT","FFT"],"seed":3}`+extra+`}`)
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
		return st
	}

	local := run("")
	sharded := run(`,"workers":["` + worker.URL + `"],"chunk_cells":4`)
	degraded := run(`,"workers":["` + worker.URL + `","` + broken.URL + `"],"chunk_cells":2`)

	localJSON, err := json.Marshal(local.Result)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]campaignStatusResponse{"sharded": sharded, "degraded": degraded} {
		raw, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(localJSON) {
			t.Errorf("%s result diverged from local run", name)
		}
	}
	if sharded.LocalFallbacks != 0 || sharded.Redispatches != 0 {
		t.Errorf("healthy run reported %d local fallbacks, %d redispatches",
			sharded.LocalFallbacks, sharded.Redispatches)
	}
	if len(sharded.WorkerChunks) == 0 || sharded.WorkerChunks[worker.URL] == 0 {
		t.Errorf("healthy run attributed no chunks to the worker: %v", sharded.WorkerChunks)
	}
	// The broken worker's chunks must be re-dispatched to the healthy one,
	// never to the coordinator's pool: that is the counter distinction.
	if degraded.Redispatches == 0 {
		t.Error("degraded run reported no redispatches")
	}
	if degraded.LocalFallbacks != 0 {
		t.Errorf("degraded run fell back locally (%d) despite a healthy worker", degraded.LocalFallbacks)
	}
	allBroken := run(`,"workers":["` + broken.URL + `"]`)
	if allBroken.Redispatches != 0 {
		t.Errorf("all-broken run reported %d redispatches with no worker to re-dispatch to", allBroken.Redispatches)
	}
	// The raw status carries local_fallbacks only: the pre-dispatcher
	// "fallbacks" alias is gone.
	var raw map[string]json.RawMessage
	if code := getJSON(t, ts.URL+"/v1/campaign/"+allBroken.ID, &raw); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	var localFallbacks int64
	if err := json.Unmarshal(raw["local_fallbacks"], &localFallbacks); err != nil || localFallbacks == 0 {
		t.Errorf("all-broken run reported local_fallbacks=%s, want non-zero", raw["local_fallbacks"])
	}
	if alias, ok := raw["fallbacks"]; ok {
		t.Errorf("status still carries the fallbacks alias (%s)", alias)
	}

	// The static-sharder "shards" field is gone: the decoder rejects it as
	// an unknown field, with or without workers.
	resp, data := postJSON(t, ts.URL+"/v1/campaign",
		`{"streamit":{"p":2,"q":2,"apps":["DCT"],"seed":3},"workers":["`+worker.URL+`"],"shards":2}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "shards") {
		t.Errorf("shards field: %d, want 400 naming the field (%s)", resp.StatusCode, data)
	}
}

// TestWorkerEndpoints: workers self-register over POST /v1/workers
// (idempotently, with URL validation), appear in GET /v1/workers and the
// healthz snapshot, and leave via DELETE /v1/workers.
func TestWorkerEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	workerSrv := New(Config{Cache: engine.NewAnalysisCache(8)})
	worker := httptest.NewServer(workerSrv.Handler())
	t.Cleanup(worker.Close)

	resp, data := postJSON(t, ts.URL+"/v1/workers", `{"url":"`+worker.URL+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d (%s)", resp.StatusCode, data)
	}
	var wl workersResponse
	if err := json.Unmarshal(data, &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Workers) != 1 || wl.Workers[0].URL != worker.URL || wl.Workers[0].State != engine.WorkerHealthy {
		t.Fatalf("registered list %+v", wl.Workers)
	}
	// Idempotent re-registration (the keep-alive path).
	if resp, _ := postJSON(t, ts.URL+"/v1/workers", `{"url":"`+worker.URL+`"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register: %d", resp.StatusCode)
	}
	var listed workersResponse
	if code := getJSON(t, ts.URL+"/v1/workers", &listed); code != http.StatusOK || len(listed.Workers) != 1 {
		t.Fatalf("list: %d, %+v", code, listed.Workers)
	}
	var hz healthzResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code != http.StatusOK || len(hz.Workers) != 1 {
		t.Fatalf("healthz workers: %d, %+v", code, hz.Workers)
	}
	if hz.Dispatcher == nil {
		t.Error("healthz of a coordinator lacks dispatcher stats")
	}

	for _, bad := range []string{`{"url":`, `{"url":""}`, `{"url":"not-a-url"}`, `{"url":"ftp://x"}`} {
		if resp, _ := postJSON(t, ts.URL+"/v1/workers", bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register %q: %d, want 400", bad, resp.StatusCode)
		}
	}

	del := func(body string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(`{"url":"` + worker.URL + `"}`); code != http.StatusOK {
		t.Fatalf("deregister: %d", code)
	}
	if code := del(`{"url":"` + worker.URL + `"}`); code != http.StatusNotFound {
		t.Errorf("double deregister: %d, want 404", code)
	}

	// Both bodies carry one URL: past 64 KiB they answer 413.
	huge := `{"url":"http://` + strings.Repeat("w", maxWorkerBodyBytes) + `"}`
	if resp, data := postJSON(t, ts.URL+"/v1/workers", huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized register: %d (%s), want 413", resp.StatusCode, data)
	}
	if code := del(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized deregister: %d, want 413", code)
	}
}

// TestCampaignViaRegistry: registering a worker promotes the instance to
// coordinator — campaigns submitted without any worker list are scheduled
// through the cluster dispatcher, reduce bit-identically to a local run,
// attribute their chunks to the worker, and feed the process-lifetime
// dispatcher counters in /v1/healthz.
func TestCampaignViaRegistry(t *testing.T) {
	ts, _ := newTestServer(t)
	workerSrv := New(Config{Cache: engine.NewAnalysisCache(8)})
	worker := httptest.NewServer(workerSrv.Handler())
	t.Cleanup(worker.Close)

	body := `{"streamit":{"p":2,"q":2,"apps":["DCT"],"seed":5}}`
	submit := func() campaignStatusResponse {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/campaign", body)
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
		return st
	}
	local := submit() // registry still empty: runs on the local executor
	if len(local.WorkerChunks) != 0 {
		t.Fatalf("local run attributed chunks to workers: %v", local.WorkerChunks)
	}

	if resp, data := postJSON(t, ts.URL+"/v1/workers", `{"url":"`+worker.URL+`"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d (%s)", resp.StatusCode, data)
	}
	scheduled := submit()
	if scheduled.WorkerChunks[worker.URL] == 0 {
		t.Errorf("registry-scheduled run attributed no chunks to the worker: %+v", scheduled.WorkerChunks)
	}
	if scheduled.LocalFallbacks != 0 {
		t.Errorf("registry-scheduled run fell back locally %d times", scheduled.LocalFallbacks)
	}
	lj, _ := json.Marshal(local.Result)
	sj, _ := json.Marshal(scheduled.Result)
	if string(lj) != string(sj) {
		t.Error("registry-scheduled result diverged from local run")
	}
	var hz healthzResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if hz.Dispatcher == nil || hz.Dispatcher.Chunks == 0 || hz.Dispatcher.WorkerChunks[worker.URL] == 0 {
		t.Errorf("healthz dispatcher totals %+v missed the scheduled campaign", hz.Dispatcher)
	}
}

// parkedExecutor announces each run and then parks until its context dies,
// reporting the error it unblocked with — a worker-side probe that a
// coordinator's DELETE really cancels in-flight /v1/cells/execute work.
type parkedExecutor struct {
	started   chan struct{}
	unblocked chan error
}

func (p *parkedExecutor) Execute(ctx context.Context, n int, run func(i int)) error {
	p.started <- struct{}{}
	<-ctx.Done()
	p.unblocked <- ctx.Err()
	return ctx.Err()
}

// TestCampaignCancelMidDispatch: DELETE on a dispatched campaign propagates
// through the coordinator's context into the in-flight /v1/cells/execute
// request, so the worker's solver stops promptly; the job settles at
// "cancelled" with no local fallbacks and no leaked scheduling goroutines.
func TestCampaignCancelMidDispatch(t *testing.T) {
	ts, _ := newTestServer(t)
	parked := &parkedExecutor{started: make(chan struct{}, 4), unblocked: make(chan error, 4)}
	workerSrv := New(Config{Cache: engine.NewAnalysisCache(8), Executor: parked})
	worker := httptest.NewServer(workerSrv.Handler())
	t.Cleanup(worker.Close)

	baseline := runtime.NumGoroutine()
	resp, data := postJSON(t, ts.URL+"/v1/campaign",
		`{"streamit":{"p":2,"q":2,"apps":["DCT"],"seed":2},"workers":["`+worker.URL+`"],"chunk_cells":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var sub campaignSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked.started: // the chunk is now in flight on the worker
	case <-time.After(10 * time.Second):
		t.Fatal("chunk never reached the worker")
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+sub.StatusURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel answered %d", dresp.StatusCode)
	}

	// Context propagation: the worker's in-flight solve must unblock with a
	// cancellation, promptly, without waiting out any request timeout.
	select {
	case err := <-parked.unblocked:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("worker solve unblocked with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker solve kept running after DELETE")
	}
	st := waitForCampaign(t, ts.URL+sub.StatusURL)
	if st.Status != "cancelled" {
		t.Fatalf("campaign ended %q", st.Status)
	}
	if st.LocalFallbacks != 0 {
		t.Errorf("cancellation triggered %d local fallbacks", st.LocalFallbacks)
	}

	// No leaked scheduling goroutines: worker pull loops, the supervisor and
	// the campaign runner must all have exited.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// blockingExecutor parks until its context is cancelled — a campaign that
// never finishes on its own, for exercising DELETE.
type blockingExecutor struct{}

func (blockingExecutor) Execute(ctx context.Context, n int, run func(i int)) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestCampaignCancel: DELETE on a running campaign cancels it through the
// engine's context (status turns "cancelled"); DELETE on a finished job
// drops it from the table.
func TestCampaignCancel(t *testing.T) {
	srv := New(Config{Cache: engine.NewAnalysisCache(8), Executor: blockingExecutor{}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, data := postJSON(t, ts.URL+"/v1/campaign", `{"streamit":{"p":2,"q":2,"apps":["DCT"],"seed":1}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var sub campaignSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+sub.StatusURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled campaignStatusResponse
	if err := json.NewDecoder(dresp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted || cancelled.Status != "cancelling" {
		t.Fatalf("cancel answered %d %q", dresp.StatusCode, cancelled.Status)
	}
	st := waitForCampaign(t, ts.URL+sub.StatusURL)
	if st.Status != "cancelled" {
		t.Fatalf("cancelled campaign ended %q", st.Status)
	}

	// Deleting the now-finished job drops it.
	dresp2, err := http.DefaultClient.Do(del.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp2.Body)
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusOK {
		t.Fatalf("delete finished job: %d", dresp2.StatusCode)
	}
	if code := getJSON(t, ts.URL+sub.StatusURL, nil); code != http.StatusNotFound {
		t.Errorf("deleted job still pollable: %d", code)
	}
	dresp3, err := http.DefaultClient.Do(del.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp3.Body)
	dresp3.Body.Close()
	if dresp3.StatusCode != http.StatusNotFound {
		t.Errorf("double delete: %d, want 404", dresp3.StatusCode)
	}
}

// TestJobRetention: finished jobs expire by TTL and by the finished-job
// count bound, oldest first; running jobs are never pruned.
func TestJobRetention(t *testing.T) {
	var clock atomic.Value
	clock.Store(time.Unix(1_000_000, 0))
	srv := New(Config{
		Cache:           engine.NewAnalysisCache(8),
		JobTTL:          time.Hour,
		MaxFinishedJobs: 1,
	})
	srv.now = func() time.Time { return clock.Load().(time.Time) }
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	submit := func() string {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/campaign", `{"streamit":{"p":2,"q":2,"apps":["DCT"],"seed":1}}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d (%s)", resp.StatusCode, data)
		}
		var sub campaignSubmitResponse
		if err := json.Unmarshal(data, &sub); err != nil {
			t.Fatal(err)
		}
		if st := waitForCampaign(t, ts.URL+sub.StatusURL); st.Status != "done" {
			t.Fatalf("campaign ended %q: %s", st.Status, st.Error)
		}
		return sub.StatusURL
	}

	first := submit()
	second := submit()
	// MaxFinishedJobs=1: polling (which prunes) must have evicted the first.
	if code := getJSON(t, ts.URL+second, nil); code != http.StatusOK {
		t.Fatalf("second job pollable: %d", code)
	}
	if code := getJSON(t, ts.URL+first, nil); code != http.StatusNotFound {
		t.Errorf("oldest finished job survived the count bound: %d", code)
	}
	// Advance past the TTL: the second job expires too.
	clock.Store(clock.Load().(time.Time).Add(2 * time.Hour))
	if code := getJSON(t, ts.URL+second, nil); code != http.StatusNotFound {
		t.Errorf("finished job survived the TTL: %d", code)
	}
}

// signalingExecutor announces when a run starts and parks until released —
// for holding a /v1/cells/execute range in flight deterministically.
type signalingExecutor struct {
	started chan struct{}
	release chan struct{}
}

func (g *signalingExecutor) Execute(ctx context.Context, n int, run func(i int)) error {
	g.started <- struct{}{}
	<-g.release
	return (&engine.PoolExecutor{}).Execute(ctx, n, run)
}

// TestCellsExecuteRangeLimit: concurrent ranges beyond MaxActiveRanges
// answer 429 (the sender re-dispatches them); capacity frees when a range
// finishes.
func TestCellsExecuteRangeLimit(t *testing.T) {
	gate := &signalingExecutor{started: make(chan struct{}, 1), release: make(chan struct{})}
	srv := New(Config{Cache: engine.NewAnalysisCache(8), Executor: gate, MaxActiveRanges: 1})
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

	type result struct {
		code int
		data []byte
	}
	first := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/cells/execute", "application/json", strings.NewReader(string(body)))
		if err != nil {
			first <- result{0, []byte(err.Error())}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		first <- result{resp.StatusCode, data}
	}()
	<-gate.started // the first range now holds the only slot

	resp2, data2 := postJSON(t, ts.URL+"/v1/cells/execute", string(body))
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit range: %d, want 429 (%s)", resp2.StatusCode, data2)
	}

	close(gate.release)
	r1 := <-first
	if r1.code != http.StatusOK {
		t.Fatalf("gated range: %d (%s)", r1.code, r1.data)
	}
	// Capacity freed: the next range executes.
	resp3, data3 := postJSON(t, ts.URL+"/v1/cells/execute", string(body))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-release range: %d (%s)", resp3.StatusCode, data3)
	}
}

// skipExecutor starts no cell, so a test can drive request decoding and
// validation without solving anything.
type skipExecutor struct{}

func (skipExecutor) Execute(context.Context, int, func(int)) error { return nil }

// TestCampaignAndRangeBodiesBounded: a /v1/campaign body past 1 MiB and a
// /v1/cells/execute body past MaxCampaignCells KiB answer 413, while a range
// of MaxCampaignCells real specs is still accepted.
func TestCampaignAndRangeBodiesBounded(t *testing.T) {
	const maxCells = 512
	srv := New(Config{Cache: engine.NewAnalysisCache(8), Executor: skipExecutor{}, MaxCampaignCells: maxCells})
	h := srv.Handler()

	campaign := `{"streamit":{"p":2,"q":2,"apps":["` + strings.Repeat("A", maxMapBodyBytes) + `"]}}`
	if got := serve(h, "/v1/campaign", campaign); got.code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(got.body, "exceeds 1048576 bytes") {
		t.Errorf("oversized campaign: status %d: %s", got.code, got.body)
	}
	rangeBody := `{"cells":[{"key":"` + strings.Repeat("k", maxCells*maxSpecBytes) + `"}]}`
	if got := serve(h, "/v1/cells/execute", rangeBody); got.code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(got.body, fmt.Sprintf("exceeds %d bytes", maxCells*maxSpecBytes)) {
		t.Errorf("oversized range: status %d: %s", got.code, got.body)
	}

	// The largest real specs: n=150 random SPGs on the largest grid, with
	// campaign-sized seeds and keys.
	cells, err := experiments.RandomCells(experiments.RandomConfig{
		N: 150, P: 16, Q: 16, CCR: 10,
		MinElevation: 1, MaxElevation: 16, GraphsPerElev: maxCells / 16, Seed: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]engine.CellSpec, len(cells))
	for i, c := range cells {
		specs[i] = c.Spec
	}
	body, err := json.Marshal(engine.ExecuteCellsRequest{Cells: specs})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != maxCells {
		t.Fatalf("built %d specs, want %d", len(specs), maxCells)
	}
	if got := serve(h, "/v1/cells/execute", string(body)); got.code != http.StatusOK {
		t.Errorf("%d-spec range (%d bytes): status %d: %s", len(specs), len(body), got.code, got.body)
	}
}
