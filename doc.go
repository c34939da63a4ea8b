// Package spgcmp reproduces "Energy-aware mappings of series-parallel
// workflows onto chip multiprocessors" (Benoit, Melhem, Renaud-Goud, Robert —
// ICPP 2011 / INRIA RR-7521): minimum-energy DAG-partition mappings of
// series-parallel streaming workflows onto DVFS-capable 2D CMP grids under a
// period bound.
//
// The implementation lives in internal packages:
//
//	internal/spg         series-parallel graphs, composition, labels, downsets,
//	                     and the scale-family Analysis cache
//	internal/platform    CMP grid, XScale DVFS model, XY routing, snake embedding
//	internal/mapping     DAG-partition mappings, period and energy evaluation
//	internal/core        the five heuristics: Random, Greedy, DPA2D, DPA1D, DPA2D1D
//	internal/exact       branch-and-bound optimal solver (admissible energy
//	                     bounds, an incumbent seeded from DPA1D, parallel
//	                     subtree search) and the Section 4.4 ILP emitter
//	internal/sim         steady-state pipeline simulator
//	internal/streamit    the 12 StreamIt workflows of Table 1
//	internal/randspg     random SPG generation with exact elevation
//	internal/engine      the campaign engine: deterministic cells, the arena
//	                     pool executor, the cluster dispatcher, the
//	                     campaign-scope AnalysisCache
//	internal/experiments the Section 6 evaluation campaigns (engine adapters)
//	                     and the one workload-to-cell lowering
//	internal/workload    the command-line -workload/-grid text parser
//	internal/service     the HTTP/JSON mapping service (cmd/spgserve)
//	internal/chaos       deterministic fault injection for the cluster paths
//	internal/benchfmt    the spgcmp-bench/v1 schema all BENCH_* CI artifacts carry
//
// # The cache and result-store layers
//
// The paper's evaluation is a campaign: every workload is solved across five
// heuristics, up to ten period divisions (Section 6.1.3), four CCR variants
// (Section 6.1.1), and — in the random sweeps — hundreds of graphs, many
// times over. Solver reuse is therefore structured in four nested layers,
// each proven bit-identical to a cache-free run by the equivalence suite:
//
// Layer 1 — instance scope. spg.Analysis memoizes everything a heuristic
// derives from the workload alone: validation, transitive closure, elevation
// levels, label grids and prefix sums, DPA2D band contexts with
// rectangle-convexity verdicts, and the interned DPA1D downset space. Each
// structure hides behind its own sync.Once-style slot, so an expensive first
// build never blocks cheap getters on concurrent goroutines. Every DPA1D
// Solve opens its own run cursor on the space (DownsetSpace.NewRun): the
// cursor charges the state budget and numbers the downsets its run touches,
// so a warmed space fails or succeeds exactly where a fresh one would, and
// runs on one space proceed concurrently — the space's mutex guards only
// interning and the expansion memo. core.NewInstance attaches a cache,
// Instance.WithPeriod re-solves at a new bound without re-analyzing, and
// every Solve falls back to a private cache when none is attached. This
// layer applies whenever the same workload is solved more than once —
// several heuristics, several periods. The protocol (engine.SelectPeriod)
// needs all five outcomes only at the period it returns: it solves each
// other period cheapest first — Random, Greedy, DPA2D1D, DPA2D, DPA1D
// (core.CellSolver) — and stops at the first success, so a structure the
// costlier heuristics build may first be built at the failing, tighter
// period. A period whose work exceeds the platform's capacity
// (core.CapacityInfeasible: a stage heavier than T·s_max, or total work
// above NumCores·T·s_max) runs no heuristic at all; its five failures are
// known. Each solver computes the per-period quantities it reads: DPA2D and
// DPA2D1D price a rectangle with platform.MinFeasibleSpeed (at most one
// compare per ladder speed) into a private arena table, and the exact
// solver builds its energy floors once per solve. Riding on the analysis,
// the core package keys one further structure to it through its Aux hook:
// a DPA1D run memo, one per scale family (Layer 2), whose entries name the
// member graph whose run they record. The memo replays recorded
// state-explosion verdicts instead of re-running enumerations whose outcome
// is already determined; a successful run records nothing and runs its DP
// again. A verdict is keyed by the run's decisions, not by the grid: it
// records the processor layer the budget ran out in and replays on every
// chain of at least that many cores, so the 6x6 campaign replays the 4x4
// campaign's failures. Nor is it pinned to its period: a looser period only
// admits more chunks and more cuts, so a run there touches at least the
// failed run's states and transitions, layer by layer, and runs out of
// budget by the same layer. A verdict therefore also replays at every
// period at least a rounding margin looser than its own: an explosion at
// the first all-fail division answers the period the protocol returns. When
// the capacity certificate answers that division instead, DPA1D first runs
// at the returned period, where an exploding lattice runs out of states in
// the first layer; once the lattice passes 4,096 states its space reserves
// room for the rest of the budget in one step, sized from the SP-tree count
// (Analysis.DownsetCount), so that run does not grow its arenas by
// doubling. A run also reports the largest cut it checked, which Layer 2 uses
// to replay its verdict on the member's siblings.
//
// Layer 2 — scale-family scope. The CCR variants of a workload differ only
// by a uniform edge-volume rescale, so Analysis.ScaleToCCR derives a variant
// analysis that shares the structural caches verbatim — nothing in them
// reads a volume — and recomputes only the volume-dependent entries (CCR,
// in-volumes, band crossing volumes, downset cut volumes) with the exact
// arithmetic a fresh analysis would use. One analysis effectively serves an
// application's whole Section 6.1 column. This layer applies whenever
// volume-rescaled variants of one workload are solved: RunStreamIt derives
// all four CCR cells of an application from one base analysis. The DPA1D
// run memo lives at this scope: one store, under one lock, per family. A
// lookup first replays the member's own verdicts, with no certificate,
// since the run they record is the member's own. Only if none replays does
// it turn to siblings' verdicts. A run reads volumes only through its cut
// check, so a run whose cut check rejected no state is volume-free, and
// its verdict carries a max-cut certificate: the largest cut it checked
// and the recorder's edge volumes. A sibling replays the verdict, at the
// recorder's period or a looser one, when no cut check of its own can fire
// on those states at the sibling's own period: its total edge volume fits
// that period's link capacity, or the largest cut scaled by ρ, the
// sibling's largest per-edge volume ratio to the recorder, still fits it
// with a rounding margin (the derivation is on core's runMemo). So a heavy
// CCR variant, whose total volume exceeds BW·T, replays its light
// sibling's state explosion too, and at the returned period, whose link
// carries ten times more, even a variant too heavy to replay it at the
// failing one. Every member waits for a sibling already running the same
// verdict key instead of repeating its enumeration alongside it. Verdicts
// from runs that did reject a state replay on their recorder only.
//
// Layer 3 — campaign scope. engine.AnalysisCache is a bounded,
// workload-identity-keyed LRU
// carrying whole analyses across campaign runs: repeated sweeps over the
// same suite — the long-running mapping-service pattern the ROADMAP aims at
// — skip workload synthesis and analysis entirely. Retention is bounded by
// an entry count and, optionally, a byte account fed by
// spg.Analysis.MemoryFootprint estimates (downset lattices dominate; the
// estimate is refreshed on every hit because lattices grow while solvers
// run). RunStreamIt and RunRandom consult the process-wide default cache
// (or one supplied by the caller; nil disables the layer). This layer
// applies across calls: the 6x6 campaign reuses the 4x4 campaign's
// analyses, and a re-run reuses everything. Campaign cells admit a family
// on first use. A single-cell request (engine.Solve, the /v1/map path)
// gets window admission instead: a first-seen family is built into a FIFO
// probation window of engine.ProbationWindow entries, outside the LRU, and
// only a second request for the family — single-cell or campaign — promotes
// it. The result store already answers a one-off request's repeats, so its
// lattice is not pinned in the LRU. Window entries count toward the cache's
// entry and byte bounds and are evicted before LRU entries.
//
// Layer 4 — outcome scope. engine.ResultStore memoizes finished cell
// outcomes themselves, keyed by content: every CellSpec has a
// canonical content key (CellSpec.ContentKey) — a versioned hash over the
// workload identity, grid, and each solver option that can steer the
// outcome, excluding campaign-local addressing (Key and CacheKey), which
// cannot — and engine.Run consults the store before
// dispatching a cell, so a spec solved once anywhere (a /v1/map request, a
// batch item, a campaign cell, a worker's dispatched range) never solves again
// while it stays resident. Each entry is the outcome's encoded answer
// (engine.Answer: verdict, per-heuristic result, winner and placement) held
// as an immutable string, so a /v1/map hit is a byte copy: the service
// splices the cell's key in front of the stored answer, indents it once and
// writes it, never decoding. Only campaign and batch hits, which need a
// CellResult, decode the answer, to a fresh copy each time. Served results
// are byte-identical to fresh solves (the store-equivalence suite proves it
// over the full StreamIt suite and the seeded random panel, cold and warm,
// at 1 and 4 workers; the service's rendering oracle proves it for every
// /v1/map path) and callers never alias store memory. Retention is LRU
// under an entry bound and a byte account; an answer larger than the byte
// bound is not stored. Where the analysis cache makes re-solving cheap,
// this layer makes it free — the high-QPS serving pattern.
//
// # The flattened DP kernels
//
// Under the cache layers, the DP solvers themselves run on dense data
// structures rather than map-keyed states. spg.DownsetSpace interns every
// downset of a chain once: per-downset element counts live in a flat stride
// arena, membership in packed bitsets, identity in an open-addressed FNV
// table, and successor expansion in id-indexed entries with epoch-stamped
// DFS marks. The DFS walks the lattice by its covering edges: an int32
// table, one slot per (downset, level), caches the downset one stage up or
// marks the step blocked, filled the first time a walk takes that step, so
// only a first traversal checks predecessors and probes the intern table,
// and every repeat step is a single load. DPA1D reads the memoized lists
// through spg.Run.Expand, which replays a list straight into scratch-arena
// slices (successor run index as int32, chunk work turned into chunk energy
// in place) instead of copying it into a fresh heap slice per run. The DP
// tables of DPA2D, DPA1D and DPA2D1D are run-indexed slices carved from a
// core.Scratch: a bump arena of doubling blocks handing out float64/int32
// windows, row matrices sliced from one flat block, and distribution
// buffers, all recycled by a reset that retains the largest block. Scratch
// ownership follows three rules: one goroutine uses a Scratch at a time;
// long-lived pool workers own one for life — the engine's ExecuteScratch
// seam threads it through solveCell and resets it between cells and between
// period divisions — and solvers accept a nil Scratch (falling back to plain
// allocation), so the arenas are an optimization, never an API obligation.
// Buffers come back dirty; kernels fully initialize what they use. Nothing
// arena-backed escapes a cell: outcomes carry scalars and wire-form copies,
// and anything shared reaches arena memory only by copying, an idiom pinned
// by the memoalias golden fixture. One DPA2D solve runs on one goroutine:
// campaigns already keep every core busy with whole cells, so fanning a
// cell's band sweeps out would only shorten a lone solve. The kernel golden
// suite replays every StreamIt cell and a seeded random panel against
// pre-refactor outputs in cold, warm and serial variants; BenchmarkCellKernel
// times each heuristic's solve in a pool worker's steady state, with
// testing.AllocsPerRun tests bounding steady-state allocation counts and a
// benchstat old-vs-new comparison in the bench CI job.
//
// # The exact-solver layer
//
// internal/exact plays the role of the paper's Section 4.4 ILP, which CPLEX
// could only solve on grids up to 2x2. The solver is a branch-and-bound
// search over the same space a plain exhaustive enumeration walks —
// restricted-growth-string set partitions with an acyclic cluster quotient,
// injective placements reduced to grid-symmetry orbit representatives,
// slowest feasible speed per core — pruned by two admissible lower bounds.
// The partition-side bound prices a partial partition from below using
// suffix-minimal dynamic-power ratios (the cheapest energy-per-work any
// feasible speed at or above a cluster's minimum can achieve; P(s)/s is not
// monotone on the XScale ladder, so the suffix minimum matters), solo floors
// for unassigned stages, and one hop of link energy per cross-cluster edge.
// The placement-side bound (mapping.PrefixAccount) is exact on computation
// once the partition is complete — cluster works determine core energies
// before any cluster is placed — and charges each placed pair its
// Manhattan-distance hop excess; both terms are invariant under grid
// automorphisms, so pruning composes soundly with the orbit canonicity
// check. Each placement node picks its candidate cores with bitmasks: for
// every placed peer it finds the smallest hop excess h at which that pair's
// term alone lifts the prefix bound past the incumbent, and keeps only the
// free cores within Manhattan distance h of the peer (a per-solve table of
// hop-radius balls, one 64-bit word per 64 cores, so any grid size works).
// A masked-out core would have failed the bound test, so the search visits
// the same nodes and leaves in the same order, without scanning the cores
// one by one. Before the search starts, DPA1D runs on the calling goroutine
// and the energy of its mapping seeds the incumbent (pinned paths stripped,
// so the seed is re-evaluated inside the solver's own XY search space); when
// DPA1D finds no valid mapping the search runs unseeded. The seed only ever
// strengthens pruning — its mapping is never returned. Search fans out over lexicographic partition prefixes on a
// worker pool (per-worker state on core.Scratch child arenas) with a shared
// atomic incumbent; bounds prune strictly (with a 1e-12 slack so last-ulp
// float noise cannot flip a verdict), per-unit winners tie-break by
// exhaustive visit order, and the final reduction walks units in order — so
// results are proven bit-identical (energy bits and mapping bytes) to the
// exhaustive enumeration at any worker count, seeded or not, with or without
// arenas. That enumeration is kept in the package's tests only, as the
// oracle the search is diffed against. SolveContext threads cancellation
// through every enumeration loop (the ctxflow analyzer pins it), and the
// placement budget is per search unit: a truncated unit surfaces ErrTooLarge
// rather than passing off an unproven mapping as optimal. Measured
// (bench-exact CI job, BenchmarkExactSolver): tens of times faster than the
// exhaustive enumeration on a 2x3 instance, and proven optima on 3x3/4x3
// frontier instances in milliseconds, with 16 and about 50 placements
// evaluated. The enumeration needs about 4.7M placements (about 9 s) for the
// 3x3 row and cannot finish the 4x3 row inside its whole 30M-placement
// default budget — past the paper's 2x2 wall.
//
// # The campaign engine and the mapping service
//
// internal/engine turns any campaign into deterministic, individually
// addressable cells — one (workload identity, CCR, grid, period divisions,
// solver options) point each, declared by a JSON-serializable CellSpec from
// which WorkloadSpec.Build (StreamIt name / random-SPG parameters / inline
// SPG) rebuilds the seeded instance — executed on an Executor with the
// campaign cache threaded through, and folded
// by order-independent reducers over the indexed results. RunStreamIt and
// RunRandom are thin adapters over it (cell enumeration plus a reducer
// each), and the equivalence suite proves engine-run campaigns
// bit-identical to the pre-engine loops for every (app, CCR, period,
// heuristic) cell at any worker count, cached or not. A workload has one
// vocabulary: experiments.WorkloadCell lowers a /v1/map workload onto its
// cell, the command-line tools reach it through workload.Parse and
// experiments.FlagCell (chain: and file: become inline graphs), and every
// tool builds its analysis with CellSpec.Analyze, so spgmap, spggen and
// ilpgen solve the graph a campaign cell and /v1/map solve.
//
// A cell runs in-process one way: the Executor's single method,
// ExecuteScratch, which PoolExecutor implements as a worker pool with one
// solver arena per worker. engine.Run hands it the cells family-interleaved,
// round-robin across workload families in order of first appearance:
// concurrent workers then solve different applications instead of CCR
// siblings that would wait on each other's DPA1D verdicts. Results stay
// indexed by cell, so the schedule changes no byte. A campaign may also
// carry a Dispatcher (Campaign.Dispatcher), the cluster scheduler, which
// ships cell specs to worker processes over HTTP/JSON
// (POST /v1/cells/execute) and reassembles the wire results at their
// absolute indexes: a WorkerRegistry tracks cluster
// membership (static -worker seeds plus
// POST /v1/workers self-registrations) and worker health (periodic
// /v1/healthz probes plus dispatch outcomes drive a
// healthy -> suspect -> dead machine with rejoin on recovery), and the
// Dispatcher splits campaigns into small chunks aligned to workload-family
// boundaries which healthy workers pull as they free up. Placement is
// cache-affine — each family has a rendezvous-hash owner among the healthy
// workers, so one family's analyses warm one worker's AnalysisCache, with
// steal-on-idle overriding affinity so no worker starves (gated on expected
// benefit: an idle worker leaves a chunk with its healthy owner when the
// owner's backlog times its EWMA chunk service time is below
// engine.DefaultStealMinBenefit, 20 ms, so brief idleness does not break
// cache affinity) — and a chunk whose dispatch fails or times out is
// re-dispatched to a different healthy worker, falling back onto the run's
// Executor — through the same family-interleaved ExecuteScratch call as a
// campaign without workers — only when no healthy worker remains that
// hasn't already failed it. Because cells are pure functions
// of their specs, every re-placement is free: the dispatcher-equivalence
// suites prove campaign results bit-identical to the
// PoolExecutor at any worker count, chunk size and failure schedule
// (dead workers, slow workers, workers that die mid-campaign and rejoin).
// Results cross the wire losslessly: CellOutcome (float64 energies
// round-trip bit-exactly through encoding/json) optionally carries the
// winning placement as mapping.WireMapping, the platform-independent
// canonical wire form of a Mapping.
//
// internal/service exposes the engine over HTTP/JSON (cmd/spgserve):
// POST /v1/map answers one workload with the period-selection protocol plus
// the winning mapping's placement — consulting the result store first, and
// coalescing identical in-flight requests into a single solve (singleflight:
// one leader solves, every concurrent duplicate waits on its flight) behind
// a bounded admission gate (active slots plus a wait queue; beyond both,
// 429 with Retry-After) — POST /v1/map/batch enumerates many map requests
// into one engine campaign (one dispatcher schedule on a coordinator,
// per-item answers byte-identical to /v1/map), POST /v1/campaign runs whole
// campaigns
// asynchronously with cell-level progress polling at GET /v1/campaign/{id}
// — including per-worker chunk attribution and the redispatch /
// local-fallback counters — and cancellation at DELETE /v1/campaign/{id}
// (propagated through the dispatcher into in-flight worker requests;
// finished jobs are retained under TTL and count bounds), and
// GET /v1/healthz reports the shared cache's and result store's statistics
// and the coalescing counters plus, on a coordinator, the worker registry
// snapshot and lifetime dispatcher counters. Every instance answers the
// worker endpoint POST /v1/cells/execute and the registry endpoints
// POST/GET/DELETE /v1/workers, so a cluster is N ordinary spgserve
// processes plus a coordinator that either names them with -worker flags or
// lets them self-register with -register-with; registering a worker
// promotes any running instance to coordinator. One engine and one cache
// back all endpoints, so a service that has mapped a workload family once
// answers every later request on it from warm structures.
//
// The serving stack is hardened for real clusters. Request deadlines
// (deadline_ms / the X-SPG-Deadline header) propagate from /v1/map and
// /v1/campaign through the dispatcher into every worker request — each
// dispatch advertises its remaining budget, and workers refuse ranges they
// cannot plausibly finish — while failed chunks re-dispatch under jittered
// exponential backoff (the jitter a pure hash of chunk and attempt) bounded
// by a per-campaign retry budget (surfaced in
// the campaign status and /v1/healthz). Dispatch outcomes and probes drive a
// per-worker circuit breaker (closed / open / half-open, visible in
// /v1/workers), and SIGTERM starts a graceful drain: the worker announces
// {draining:true} so its coordinator stops placing chunks on it without
// marking it dead, finishes in-flight ranges, deregisters and exits.
// Because every retry, re-placement and fallback re-executes a pure cell,
// none of this machinery can change a campaign's bytes — and internal/chaos
// proves it: a seeded http.RoundTripper injects deterministic faults
// (drops, delays, 5xx, garbage, truncated bodies) on a declarative
// schedule, and the dispatcher chaos suite plus the CI fault matrix assert
// byte-identical results under every fault class, with retries within
// budget and breaker transitions observed. Same seed, same faults — a
// chaos failure replays exactly.
//
// BenchmarkCampaign times the full StreamIt suite (all CCR variants, warm
// cache), BenchmarkSelectPeriodSweep one application's CCR sweep over the
// scale-family layer, and the cache-equivalence tests prove bit-identical
// energies for every (app, CCR, period, heuristic) cell with and without
// each layer.
//
// # Machine-checked invariants
//
// Three of the properties above — campaigns are deterministic, results cross
// the wire losslessly, shared state is lock-disciplined — are invariants the
// type system cannot see. internal/lint machine-checks them: six custom
// analyzers (detrange, wirecodec, memoalias, lockguard, ctxflow, nofuse)
// compiled into cmd/spglint and run over ./... as a required CI job. Deliberate
// exceptions carry a //spglint:ignore annotation with a written reason; see
// internal/lint/doc.go for the invariant catalog and README.md for how to
// run the suite locally.
//
// Output bytes are the same on every GOARCH. Go may fuse x*y + z into one
// instruction with a single rounding on arm64 and ppc64le (never on amd64),
// so every such expression in the solver packages and their test oracles
// is written float64(x*y) + z: the explicit conversion rounds the product
// and forbids the fusion. spglint's nofuse analyzer flags an unconverted
// product in those packages and their _test.go files, and a CI step in the
// lint job cross-compiles internal/{spg,platform,mapping,core,exact,engine,sim}
// and their test binaries for arm64 and ppc64le with -gcflags=-S and fails
// on any fused multiply-add.
//
// Executables: cmd/spgmap (map one workload), cmd/experiments (regenerate
// every table and figure), cmd/spgserve (the HTTP mapping service; see
// cmd/spgserve/README.md for curl examples), cmd/spgload (seeded
// closed-loop load generator for the map path; its legs and the other
// benchmark artifacts share the internal/benchfmt schema, onto which
// cmd/spgbench lowers `go test -bench` output), cmd/spggen (emit
// workloads), cmd/ilpgen (emit the ILP). Runnable walkthroughs live under examples/ —
// examples/period-sweep documents the cache layers from a user's
// perspective. The benchmarks in bench_test.go regenerate each table and
// figure at reduced scale; BenchmarkEngineCampaign times a warm campaign
// on the in-process pool and BenchmarkDispatcherSteal the same campaign
// through the dispatcher on a cluster with one slow worker.
package spgcmp
