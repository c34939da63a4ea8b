// Command spgserve runs the HTTP/JSON mapping service: the Section 6 solver
// stack behind POST /v1/map and POST /v1/campaign, backed by the shared
// campaign engine and the campaign-scope analysis cache (see
// internal/service and the README next to this file).
//
// Every spgserve process also answers the worker endpoint
// POST /v1/cells/execute, so a cluster is just N ordinary instances plus a
// coordinator that knows them: either seed the coordinator with -worker
// flags, or start each worker with -register-with pointing at the
// coordinator and let it announce itself. The coordinator's worker registry
// health-probes every member, and its work-stealing dispatcher pulls
// family-affine cell chunks to whichever workers are free — re-dispatching
// failed chunks to surviving workers — so campaigns stay bit-identical to a
// single-process run through worker deaths, rejoins and replacements.
//
// SIGTERM (and SIGINT) triggers a graceful drain: the process announces
// {draining:true} to its coordinator so it stops receiving chunks without
// being marked dead, sheds new work with 503, finishes in-flight requests
// within -drain-timeout, deregisters, and exits — a rolling restart loses no
// chunk and trips no circuit breaker. The -chaos flag wraps the dispatcher's
// HTTP client in internal/chaos's deterministic fault injector (see that
// package and `spgserve -h` for the spec grammar); CI drives a real
// three-process cluster under it and asserts byte-identical results.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spgcmp/internal/chaos"
	"spgcmp/internal/engine"
	"spgcmp/internal/service"
)

// parseByteSize reads a -result-cache-bytes style value: a plain byte count
// or one with a K/M/G (or KB/MB/GB, KiB/MiB/GiB — all binary) suffix,
// case-insensitive. "0" disables the bound it configures.
func parseByteSize(s string) (int64, error) {
	v := strings.ToLower(strings.TrimSpace(s))
	v = strings.TrimSuffix(strings.TrimSuffix(v, "b"), "i")
	shift := 0
	switch {
	case strings.HasSuffix(v, "k"):
		v, shift = v[:len(v)-1], 10
	case strings.HasSuffix(v, "m"):
		v, shift = v[:len(v)-1], 20
	case strings.HasSuffix(v, "g"):
		v, shift = v[:len(v)-1], 30
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("byte size %q: want a number with optional K/M/G suffix", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("byte size %q: negative", s)
	}
	if shift > 0 && n > (1<<62)>>shift {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n << shift, nil
}

// addWorkerURLs appends the -worker flag value's URLs to dst: each
// occurrence may carry one URL or a comma-separated list.
func addWorkerURLs(dst *[]string, value string) error {
	for _, u := range strings.Split(value, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			return fmt.Errorf("empty worker URL in %q", value)
		}
		*dst = append(*dst, u)
	}
	return nil
}

// advertiseURL derives the base URL this process registers under from its
// listen address when -advertise is not given: a wildcard or empty host
// becomes 127.0.0.1 (the operator must pass -advertise for anything
// reachable across machines).
func advertiseURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	switch host {
	case "", "0.0.0.0", "::", "[::]":
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// registerLoop announces this process to a coordinator's POST /v1/workers —
// immediately, then every interval as a keep-alive, so a coordinator that
// restarts (or starts late) relearns its workers without operator action.
// Closing stop ends the loop; the drain sequence does that before it sends
// the draining notice, so no keep-alive re-registration (which clears the
// coordinator's draining mark) can race it.
func registerLoop(coordinator, selfURL string, interval time.Duration, stop <-chan struct{}) {
	endpoint := strings.TrimRight(coordinator, "/") + "/v1/workers"
	body := fmt.Sprintf(`{"url":%q}`, selfURL)
	registered := false
	for {
		resp, err := http.Post(endpoint, "application/json", bytes.NewReader([]byte(body)))
		switch {
		case err != nil:
			log.Printf("registering with %s failed: %v (retrying)", coordinator, err)
			registered = false
		case resp.StatusCode != http.StatusOK:
			log.Printf("registering with %s answered %s (retrying)", coordinator, resp.Status)
			registered = false
		case !registered:
			log.Printf("registered as %s with coordinator %s", selfURL, coordinator)
			registered = true
		}
		if resp != nil {
			resp.Body.Close()
		}
		select {
		case <-time.After(interval):
		case <-stop:
			return
		}
	}
}

// announceDrain tells the coordinator this worker is draining: still alive,
// still probe-answering, but ineligible for new chunks. Best-effort — a
// coordinator that misses it only loses the head start, not correctness (its
// dispatches fail against the 503s and re-route).
func announceDrain(coordinator, selfURL string) {
	endpoint := strings.TrimRight(coordinator, "/") + "/v1/workers"
	body := fmt.Sprintf(`{"url":%q,"draining":true}`, selfURL)
	resp, err := http.Post(endpoint, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Printf("drain announcement to %s failed: %v", coordinator, err)
		return
	}
	resp.Body.Close()
	log.Printf("announced drain of %s to coordinator %s", selfURL, coordinator)
}

// deregister removes this worker from the coordinator's registry — the final
// step of a drain, after in-flight work has finished.
func deregister(coordinator, selfURL string) {
	endpoint := strings.TrimRight(coordinator, "/") + "/v1/workers"
	body := fmt.Sprintf(`{"url":%q}`, selfURL)
	req, err := http.NewRequestWithContext(context.Background(), http.MethodDelete, endpoint, bytes.NewReader([]byte(body)))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Printf("deregistering from %s failed: %v", coordinator, err)
		return
	}
	resp.Body.Close()
	log.Printf("deregistered %s from coordinator %s", selfURL, coordinator)
}

func main() {
	var workerURLs []string
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		cacheSize     = flag.Int("cache-entries", 512, "campaign cache capacity in workloads; <= 0 removes the entry bound, which with -cache-mb 0 disables caching entirely")
		cacheMB       = flag.Int64("cache-mb", 0, "campaign cache byte bound in MiB, estimated by spg.Analysis.MemoryFootprint (0 disables)")
		workers       = flag.Int("workers", 0, "campaign executor workers (0 = GOMAXPROCS)")
		resultEntries = flag.Int("result-cache-entries", 4096, "content-addressed result store capacity in cell outcomes; with -result-cache-bytes 0 both <= 0 disable the store")
		resultBytes   = flag.String("result-cache-bytes", "0", "content-addressed result store byte bound, e.g. 64M or 1GiB (0 = no byte bound)")
		maxCells      = flag.Int("max-campaign-cells", 10_000, "largest accepted campaign, in cells")
		maxGrid       = flag.Int("max-grid", 16, "largest accepted CMP side")
		maxRanges     = flag.Int("max-active-ranges", 4, "concurrently executing /v1/cells/execute ranges; beyond it workers answer 429")
		maxMaps       = flag.Int("max-active-maps", 4, "concurrently executing /v1/map solves; beyond active+queued the service answers 429")
		maxQueuedMaps = flag.Int("max-queued-maps", 0, "/v1/map solves allowed to wait for an active slot (0 = shed immediately)")
		maxBatches    = flag.Int("max-active-batches", 2, "concurrently executing /v1/map/batch campaigns (plus a wait queue of the same depth); beyond both, 429")
		maxBatchCells = flag.Int("max-batch-cells", 256, "largest accepted /v1/map/batch request, in items")
		chunkCells    = flag.Int("chunk-cells", 0, "cells per dispatcher chunk for scheduled campaigns (0 = one workload family)")
		probeInterval = flag.Duration("probe-interval", 5*time.Second, "worker health-probe spacing (also the self-registration keep-alive interval)")
		registerWith  = flag.String("register-with", "", "coordinator base URL to self-register with via POST /v1/workers")
		advertise     = flag.String("advertise", "", "base URL this process registers under (default derived from -addr)")
		jobTTL        = flag.Duration("job-ttl", time.Hour, "how long finished campaign jobs stay pollable (negative disables)")
		maxJobs       = flag.Int("max-finished-jobs", 64, "retained finished campaign jobs, oldest evicted first (negative disables)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests before exiting")
		pprofAddr     = flag.String("pprof-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty = disabled); bind to loopback, the endpoints are unauthenticated")
		chaosSpec     = flag.String("chaos", "", `deterministic fault injection on outgoing dispatch requests, e.g. "delay,d=400ms,path=/v1/cells/execute,every=3;status,code=500,every=5" (see internal/chaos)`)
		chaosSeed     = flag.Int64("chaos-seed", 1, "seed for the -chaos probability gates (same seed, same faults)")
		quickstart    = flag.Bool("h-examples", false, "print example requests and exit")
	)
	flag.Func("worker", "worker base URL, repeatable and/or comma-separated; seeds the coordinator's worker registry", func(v string) error {
		return addWorkerURLs(&workerURLs, v)
	})
	flag.Parse()
	if *quickstart {
		fmt.Println(`curl localhost:8080/v1/healthz
curl -X POST localhost:8080/v1/map -d '{"workload":{"streamit":"FFT","ccr":1},"p":4,"q":4,"seed":42}'
curl -X POST localhost:8080/v1/campaign -d '{"streamit":{"p":4,"q":4,"apps":["DCT","FFT"],"seed":42}}'
curl localhost:8080/v1/campaign/c1
curl -X DELETE localhost:8080/v1/campaign/c1
curl localhost:8080/v1/workers
# coordinator of a 3-process cluster (see README.md):
#   spgserve -addr :8080 -worker http://127.0.0.1:8081,http://127.0.0.1:8082
# or let workers announce themselves:
#   spgserve -addr :8081 -register-with http://127.0.0.1:8080`)
		os.Exit(0)
	}

	var dispatchClient *http.Client
	if *chaosSpec != "" {
		rules, err := chaos.Parse(*chaosSpec)
		if err != nil {
			log.Fatalf("-chaos: %v", err)
		}
		dispatchClient = &http.Client{Transport: &chaos.Transport{Seed: *chaosSeed, Rules: rules}}
		log.Printf("CHAOS: injecting %d fault rule(s) into dispatch requests (seed %d)", len(rules), *chaosSeed)
	}

	if *pprofAddr != "" {
		// Profiling lives on its own listener so the service handler never
		// exposes it: DefaultServeMux carries the net/http/pprof registrations
		// from the import above, nothing else is registered on it here.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			log.Printf("pprof server stopped: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	storeBytes, err := parseByteSize(*resultBytes)
	if err != nil {
		log.Fatalf("-result-cache-bytes: %v", err)
	}
	cache := engine.NewAnalysisCacheBytes(*cacheSize, *cacheMB<<20)
	store := engine.NewResultStore(*resultEntries, storeBytes)
	registry := engine.NewWorkerRegistry(*probeInterval, workerURLs...)
	registry.Start()
	defer registry.Stop()
	srv := service.New(service.Config{
		Cache:    cache,
		Store:    store,
		Executor: &engine.PoolExecutor{Workers: *workers},
		Registry: registry,
		Client:   dispatchClient,
		OnFallback: func(start, end int, err error) {
			log.Printf("dispatch chunk [%d,%d) fell back to local execution: %v", start, end, err)
		},
		ChunkCells:       *chunkCells,
		MaxGrid:          *maxGrid,
		MaxCampaignCells: *maxCells,
		MaxActiveRanges:  *maxRanges,
		MaxActiveMaps:    *maxMaps,
		MaxQueuedMaps:    *maxQueuedMaps,
		MaxActiveBatches: *maxBatches,
		MaxBatchCells:    *maxBatchCells,
		JobTTL:           *jobTTL,
		MaxFinishedJobs:  *maxJobs,
	})
	self := *advertise
	if self == "" {
		self = advertiseURL(*addr)
	}
	stopKeepAlive := make(chan struct{})
	if *registerWith != "" {
		go registerLoop(*registerWith, self, *probeInterval, stopKeepAlive)
	}
	role := "single-process"
	if len(workerURLs) > 0 {
		role = fmt.Sprintf("coordinator seeded with %d workers", len(workerURLs))
	}
	storeDesc := "off"
	if store.Enabled() {
		storeDesc = fmt.Sprintf("%d entries, %d bytes", *resultEntries, storeBytes)
	}
	log.Printf("spgserve listening on %s (%s; cache: %d entries, %d MiB; result store: %s; workers: %d)",
		*addr, role, *cacheSize, *cacheMB, storeDesc, *workers)

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case sig := <-sigs:
		// Graceful drain: shed new work, tell the coordinator we are leaving
		// the rotation (ineligible, not dead), finish what is in flight, then
		// deregister and go. A second signal aborts the wait.
		log.Printf("received %v: draining (timeout %v)", sig, *drainTimeout)
		srv.StartDrain()
		close(stopKeepAlive)
		if *registerWith != "" {
			announceDrain(*registerWith, self)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			<-sigs
			log.Print("second signal: aborting drain")
			cancel()
		}()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("drain ended early: %v", err)
		}
		cancel()
		if *registerWith != "" {
			deregister(*registerWith, self)
		}
		log.Print("drained; exiting")
	}
}
