package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// WireCellResult is the wire form of a CellResult: the error crosses process
// boundaries as its message, and the index is positional (a worker answers a
// spec range in request order; the coordinator re-derives absolute indexes
// from the range it dispatched, so a confused worker can never scatter
// results into foreign cells).
type WireCellResult struct {
	Key      string         `json:"key"`
	Feasible bool           `json:"feasible"`
	Result   InstanceResult `json:"result"`
	Error    string         `json:"error,omitempty"`
}

// Wire converts the result for transport.
func (r CellResult) Wire() WireCellResult {
	w := WireCellResult{Key: r.Key, Feasible: r.Feasible, Result: r.Result}
	if r.Err != nil {
		w.Error = r.Err.Error()
	}
	return w
}

// CellResult rebuilds the executable-side result at the given absolute cell
// index.
func (w WireCellResult) CellResult(index int) CellResult {
	r := CellResult{Index: index, Key: w.Key, Feasible: w.Feasible, Result: w.Result}
	if w.Error != "" {
		r.Err = errors.New(w.Error)
	}
	return r
}

// ExecuteCellsRequest is the body of the worker endpoint
// POST /v1/cells/execute: a range of cell specs to solve.
type ExecuteCellsRequest struct {
	Cells []CellSpec `json:"cells"`
}

// ExecuteCellsResponse answers an ExecuteCellsRequest with one result per
// requested cell, in request order.
type ExecuteCellsResponse struct {
	Results []WireCellResult `json:"results"`
}

// ExecuteSpecs solves a batch of wire-received cell specs on the local
// engine — the worker half of the cell-range protocol, called by the
// service's /v1/cells/execute handler. Results are returned in request
// order. The executor must be in-process (callers pass their local pool): a
// Dispatcher would ship the range back onto the cluster.
//
// Because the specs cross a trust boundary, their CacheKeys are not honored
// as sent: every caching cell resolves under the canonical FamilyKey derived
// from its workload content, so a request can never alias another family's
// entry in the shared cache (sharing semantics are unchanged — equal
// workloads still share one base). An empty CacheKey still opts out.
//
// store, when enabled, is the worker's own content-addressed result store:
// a dispatched cell this worker has already solved is answered from it
// without re-solving (the content hash is derived from the spec locally, so
// a request can no more alias a foreign outcome than a foreign analysis).
func ExecuteSpecs(ctx context.Context, ex Executor, specs []CellSpec, cache *AnalysisCache, store *ResultStore) ([]WireCellResult, error) {
	cells := make([]Cell, len(specs))
	for i, sp := range specs {
		if sp.CacheKey != "" {
			if key, err := sp.Workload.FamilyKey(); err == nil {
				sp.CacheKey = key
			} else {
				sp.CacheKey = "" // malformed workload: Build will report it
			}
		}
		cells[i] = sp.Cell()
	}
	results, err := Run(ctx, ex, Campaign{Cells: cells, Cache: cache, Store: store})
	if err != nil {
		return nil, err
	}
	wire := make([]WireCellResult, len(results))
	for i, r := range results {
		wire[i] = r.Wire()
	}
	return wire, nil
}

// DefaultRequestTimeout bounds one /v1/cells/execute range request when the
// sender configured no explicit RequestTimeout (a range is many full
// period-selection solves, so the default is generous). It is the sender's
// own patience, not the campaign's: when the caller propagated a tighter
// deadline through ctx, context.WithTimeout below keeps the earlier of the
// two, so the effective budget is min(campaign deadline, request timeout).
const DefaultRequestTimeout = 10 * time.Minute

// postCellRange ships one spec range to a worker's /v1/cells/execute and
// validates the response shape: a result per cell, keys matching in order —
// the Dispatcher's half of the cell-range protocol. A timeout <= 0 selects
// DefaultRequestTimeout; a nil client selects http.DefaultClient. The
// request's effective deadline — the earlier of ctx's propagated deadline
// and the timeout — is advertised to the worker via DeadlineHeader so it can
// refuse ranges it cannot finish in time.
func postCellRange(ctx context.Context, client *http.Client, worker string, specs []CellSpec, timeout time.Duration) ([]WireCellResult, error) {
	body, err := json.Marshal(ExecuteCellsRequest{Cells: specs})
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	url := strings.TrimRight(worker, "/") + "/v1/cells/execute"
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	stampDeadline(req)
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("worker %s answered %s: %s", worker, resp.Status, bytes.TrimSpace(msg))
	}
	var out ExecuteCellsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("worker %s: bad response: %w", worker, err)
	}
	if len(out.Results) != len(specs) {
		return nil, fmt.Errorf("worker %s answered %d results for %d cells", worker, len(out.Results), len(specs))
	}
	for i := range out.Results {
		if out.Results[i].Key != specs[i].Key {
			return nil, fmt.Errorf("worker %s: result %d keyed %q, want %q", worker, i, out.Results[i].Key, specs[i].Key)
		}
	}
	return out.Results, nil
}
