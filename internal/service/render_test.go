package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/mapping"
	"spgcmp/internal/streamit"
)

// The reference rendering of /v1/map and /v1/map/batch bodies: the response
// built field by field from a freshly solved cell and written by a
// json.Encoder with two-space indent. The served bodies, which splice the
// key into a stored answer and indent it with appendIndent, must equal it
// byte for byte.

type oracleMapResponse struct {
	Key      string                `json:"key"`
	Feasible bool                  `json:"feasible"`
	Result   engine.InstanceResult `json:"result"`
	Best     string                `json:"best,omitempty"`
	Mapping  *mapping.WireMapping  `json:"mapping,omitempty"`
	Error    string                `json:"error,omitempty"`
}

type oracleBatchResponse struct {
	Results []oracleMapResponse `json:"results"`
}

func oracleMapResponseFor(res engine.CellResult) oracleMapResponse {
	resp := oracleMapResponse{Key: res.Key, Feasible: res.Feasible, Result: res.Result}
	if res.Err != nil {
		resp.Error = res.Err.Error()
		return resp
	}
	if !res.Feasible {
		return resp
	}
	best := res.Result.BestEnergy()
	for _, o := range res.Result.Outcomes {
		if o.OK && o.Energy == best {
			resp.Best = o.Heuristic
			resp.Mapping = o.Mapping
			break
		}
	}
	return resp
}

// rendered is one HTTP answer: status, Content-Type and body.
type rendered struct {
	code  int
	ctype string
	body  string
}

func oracleRender(code int, v any) rendered {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return rendered{code, "application/json", buf.String()}
}

// oracleSolve solves the cell a /v1/map request body names, on its own
// analysis cache.
func oracleSolve(t *testing.T, body string, cache *engine.AnalysisCache) engine.CellResult {
	t.Helper()
	var req mapRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	cell, err := req.Workload.cell(req.P, req.Q, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cell.Spec.Opts.KeepMappings = true
	return engine.Solve(cell, cache)
}

func oracleMap(res engine.CellResult) rendered {
	code := http.StatusOK
	if !res.Feasible {
		code = http.StatusUnprocessableEntity
	}
	return oracleRender(code, oracleMapResponseFor(res))
}

func serve(h http.Handler, path, body string) rendered {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rendered{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}
}

func requireRendered(t *testing.T, what string, got, want rendered) {
	t.Helper()
	if got.code != want.code || got.ctype != want.ctype {
		t.Fatalf("%s: status %d %q, want %d %q", what, got.code, got.ctype, want.code, want.ctype)
	}
	if got.body != want.body {
		t.Fatalf("%s: body differs from the reference rendering:\n%s\nwant:\n%s", what, got.body, want.body)
	}
}

// infeasibleMapBody cannot meet the 1 s starting period on one core: 422.
const infeasibleMapBody = `{"workload":{"random":{"n":50,"elevation":1,"seed":3,"ccr":1}},"p":1,"q":1,"seed":1}`

// oracleBodies is every Table 1 application at its original CCR on the given
// grids, plus the infeasible body and servingMapBody.
func oracleBodies(grids [][2]int) []string {
	var bodies []string
	for _, g := range grids {
		for _, a := range streamit.Suite() {
			bodies = append(bodies, fmt.Sprintf(`{"workload":{"streamit":%q},"p":%d,"q":%d,"seed":1}`, a.Name, g[0], g[1]))
		}
	}
	return append(bodies, infeasibleMapBody, servingMapBody)
}

// TestMapRenderingMatchesOracle: every /v1/map answer path — the cold miss
// that solves and stores, the warm store hit, a waiter coalesced onto
// another request's flight, and the store switched off — and the batch
// endpoint render the reference bytes.
func TestMapRenderingMatchesOracle(t *testing.T) {
	grids := [][2]int{{2, 2}, {4, 4}}
	if testing.Short() {
		grids = grids[:1]
	}
	bodies := oracleBodies(grids)
	shared := engine.NewAnalysisCache(64)
	on := New(Config{Cache: shared, Store: engine.NewResultStore(256, 0)})
	off := New(Config{Cache: shared})
	hOn, hOff := on.Handler(), off.Handler()
	oracleCache := engine.NewAnalysisCache(64)

	var batch []string
	var want []oracleMapResponse
	for _, body := range bodies {
		res := oracleSolve(t, body, oracleCache)
		ref := oracleMap(res)
		requireRendered(t, "cold "+body, serve(hOn, "/v1/map", body), ref)
		requireRendered(t, "warm "+body, serve(hOn, "/v1/map", body), ref)
		requireRendered(t, "store off "+body, serve(hOff, "/v1/map", body), ref)
		requireRendered(t, "coalesced "+body, serveCoalesced(t, off, body), ref)

		batch = append(batch, body, body)
		want = append(want, oracleMapResponseFor(res), oracleMapResponseFor(res))
	}
	if st := on.store.Stats(); st.Hits != uint64(len(bodies)) || st.Puts != uint64(len(bodies)) {
		t.Fatalf("store traffic %+v, want one put and one hit per body", st)
	}

	batchBody := `{"requests":[` + strings.Join(batch, ",") + `]}`
	ref := oracleRender(http.StatusOK, oracleBatchResponse{Results: want})
	requireRendered(t, "warm batch", serve(hOn, "/v1/map/batch", batchBody), ref)
	if testing.Short() {
		return
	}
	cold := New(Config{Cache: engine.NewAnalysisCache(64), Store: engine.NewResultStore(256, 0)})
	requireRendered(t, "cold batch", serve(cold.Handler(), "/v1/map/batch", batchBody), ref)
	requireRendered(t, "store-off batch", serve(hOff, "/v1/map/batch", batchBody), ref)
}

// serveCoalesced answers body as a waiter on a flight the test leads: the
// request joins the flight, and only then does the leader solve and publish.
func serveCoalesced(t *testing.T, srv *Server, body string) rendered {
	t.Helper()
	var req mapRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	cell, err := req.Workload.cell(req.P, req.Q, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cell.Spec.Opts.KeepMappings = true
	key, err := cell.Spec.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	f, leads := srv.flights.join(key)
	if !leads {
		t.Fatal("a flight for the key is already open")
	}
	before := srv.flights.stats().Coalesced
	got := make(chan rendered, 1)
	go func() { got <- serve(srv.Handler(), "/v1/map", body) }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.flights.stats().Coalesced == before {
		if time.Now().After(deadline) {
			t.Fatal("the request never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	srv.solveFlight(cell, key, f)
	return <-got
}

// TestMapAnswerKeyEscaping: the spliced key is escaped exactly as
// encoding/json escapes a string field, for keys with quotes, backslashes,
// HTML-significant bytes, U+2028/U+2029 and invalid UTF-8.
func TestMapAnswerKeyEscaping(t *testing.T) {
	m := &mapping.WireMapping{P: 2, Q: 2, Alloc: [][2]int{{0, 0}, {0, 1}, {1, 1}}}
	feasible := engine.CellResult{Feasible: true, Result: engine.InstanceResult{Period: 0.01, Outcomes: []core.CellOutcome{
		{Heuristic: "Random", OK: false},
		{Heuristic: "Greedy", OK: true, Energy: 1.25e-3, ActiveCores: 3, Mapping: m},
	}}}
	infeasible := engine.CellResult{Result: engine.InstanceResult{Period: 1, Outcomes: []core.CellOutcome{{Heuristic: "Greedy"}}}}
	keys := []string{"", "plain/key", `a"b`, `c\d`, `\\"`, "<script>&amp;", "line\u2028sep\u2029", "tab\tnl\n", "bad\xffutf8", "\u00fcn\u00ef\u20ac\U0001F600"}
	for _, res := range []engine.CellResult{feasible, infeasible} {
		a, err := engine.EncodeAnswer(res)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			rec := httptest.NewRecorder()
			writeMapAnswer(rec, key, a)
			res.Key = key
			requireRendered(t, fmt.Sprintf("key %q", key),
				rendered{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}, oracleMap(res))
		}
	}
}

// TestWriteJSONMatchesEncoder: writeJSON renders what json.Encoder with
// two-space indent writes, for the service's other bodies.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	values := []any{
		errorResponse{Error: `bad request: "x" <&> ` + "\u2028"},
		workersResponse{},
		campaignStatusResponse{ID: "c1", Kind: "streamit", Status: "done", WorkerChunks: map[string]int64{"b": 2, "a": 1}},
		map[string]any{"empty": []int{}, "obj": map[string]int{}, "nil": nil, "f": 1e21, "g": 5e-324},
		[]string{},
		"top-level string",
	}
	for _, v := range values {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusTeapot, v)
		requireRendered(t, fmt.Sprintf("%T", v),
			rendered{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}, oracleRender(http.StatusTeapot, v))
	}
}

// TestMapBodyTooLarge: /v1/map and /v1/map/batch bodies past 1 MiB answer
// 413; a body just under the bound is served.
func TestMapBodyTooLarge(t *testing.T) {
	srv := New(Config{Cache: engine.NewAnalysisCache(8)})
	h := srv.Handler()
	huge := `{"workload":{"streamit":"` + strings.Repeat("A", maxMapBodyBytes) + `"},"p":2,"q":2}`
	for _, path := range []string{"/v1/map", "/v1/map/batch"} {
		body := huge
		if path == "/v1/map/batch" {
			body = `{"requests":[` + huge + `]}`
		}
		got := serve(h, path, body)
		if got.code != http.StatusRequestEntityTooLarge || !strings.Contains(got.body, "exceeds 1048576 bytes") {
			t.Fatalf("%s: status %d: %s", path, got.code, got.body)
		}
	}
	padded := servingMapBody + strings.Repeat(" ", maxMapBodyBytes-len(servingMapBody))
	if got := serve(h, "/v1/map", padded); got.code != http.StatusOK {
		t.Fatalf("body at the bound: status %d: %s", got.code, got.body)
	}
}

// FuzzAppendIndent: appendIndent of compact encoding/json output equals
// json.Indent, over fuzzed strings, floats and nesting depths, and over the
// compacted form of any valid JSON the fuzzer finds.
func FuzzAppendIndent(f *testing.F) {
	f.Add("", 0.0, uint8(0))
	f.Add(`a"b\c<d>&e`+"\u2028\x00\xff", 1e21, uint8(3))
	f.Add("[]{}", -1.5, uint8(1))
	f.Add(`\"`, 5e-324, uint8(7))
	f.Add(`{"a":[1,{},[],"x\"y"],"b":{"c":null}}`, 123456789.0, uint8(2))
	f.Add(`[ 1E+5 , "é\/" , true ]`, -0.0, uint8(39))
	f.Fuzz(func(t *testing.T, s string, x float64, depth uint8) {
		var v any = map[string]any{s: x, "s": s, "a": []any{}, "o": map[string]any{}, "n": nil, "b": true, "l": []any{x, s, []any{}, map[string]any{s: []any{}}}}
		for i := 0; i < int(depth%40); i++ {
			if i%2 == 0 {
				v = []any{v, s, x, map[string]any{}}
			} else {
				v = map[string]any{s: v, "e": []any{}}
			}
		}
		srcs := [][]byte{}
		if src, err := json.Marshal(v); err == nil { // NaN and ±Inf do not encode
			srcs = append(srcs, src)
		}
		if json.Valid([]byte(s)) {
			var c bytes.Buffer
			if err := json.Compact(&c, []byte(s)); err != nil {
				t.Fatal(err)
			}
			srcs = append(srcs, c.Bytes())
		}
		for _, src := range srcs {
			var want bytes.Buffer
			if err := json.Indent(&want, src, "", "  "); err != nil {
				t.Fatal(err)
			}
			if got := appendIndent(nil, src); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("appendIndent(%q):\n%s\nwant:\n%s", src, got, want.Bytes())
			}
		}
	})
}

// BenchmarkMapHit times one warmed Table 1 /v1/map store hit (FMRadio on
// 4x4) through the service handler.
func BenchmarkMapHit(b *testing.B) {
	srv := New(Config{Cache: engine.NewAnalysisCache(8), Store: engine.NewResultStore(64, 0)})
	h := srv.Handler()
	const body = `{"workload":{"streamit":"FMRadio"},"p":4,"q":4,"seed":1}`
	if got := serve(h, "/v1/map", body); got.code != http.StatusOK {
		b.Fatalf("warm-up: status %d: %s", got.code, got.body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	if st := srv.store.Stats(); st.Hits != uint64(b.N) {
		b.Fatalf("%d store hits for %d requests", st.Hits, b.N)
	}
}
