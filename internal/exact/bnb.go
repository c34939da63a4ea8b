package exact

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"spgcmp/internal/core"
	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// Branch-and-bound engine. The search space and evaluation are identical to
// the exhaustive enumeration the tests keep as its oracle
// (exhaustive_oracle_test.go: same restricted-growth-string partition order,
// same symmetry-reduced placement recursion, same evaluator); the engine
// only ever removes subtrees whose admissible lower bound strictly exceeds
// the incumbent energy, so the optimum — and, with the tie rules below, the
// exact mapping bytes — are preserved.
//
// Determinism rules. The exhaustive baseline returns the FIRST minimum-
// energy mapping in enumeration order (its incumbent is replaced on strict
// improvement only). To reproduce that under parallelism:
//
//   - The search is split into units: the lexicographic prefixes of the
//     partition tree at a fixed depth, in enumeration order. Each unit is
//     explored by exactly one worker with first-found-wins local tie rules,
//     and unit results are reduced in ascending unit order with strict
//     improvement — the exhaustive engine's global order, reconstructed.
//   - The shared incumbent is (energy, unit) ordered lexicographically; it
//     gates pruning only, never selection. Pruning is strict with slack —
//     a subtree dies only when bound > incumbent*(1+pruneSlack) — so a
//     subtree that could still contain an equal-energy, earlier-unit mapping
//     is never discarded, and last-ulp float divergence between a bound and
//     the evaluator's summation order can never prune the true winner.
//   - The DPA1D seed enters the incumbent with unit +inf: it prunes but can
//     never be selected, and since its (path-stripped) mapping lies in the
//     search space, its energy is >= the in-space optimum — pruning against
//     it is sound. It is computed before the search starts, on the calling
//     goroutine, so it is the same at every worker count.
//
// Sound pruning plus total-order selection make the result independent of
// worker count and goroutine schedule. The one schedule-dependent quantity
// is the per-unit node count (a better shared incumbent prunes more), which
// the budget meters; sharing only ever shrinks explored counts, so any
// instance whose units fit the budget under seed-only pruning completes
// under every schedule. On truncation the engine returns ErrTooLarge rather
// than an unproven best-so-far.

// pruneSlack is the relative slack of the prune test. Bounds and the
// evaluator accumulate the same terms in different orders, so they can
// disagree by a few ulp (~1e-16 relative per term); 1e-12 dominates that by
// orders of magnitude while remaining far below any real energy gap.
const pruneSlack = 1e-12

// seedUnit is the unit rank of the DPA1D seed: it loses every tie, so the
// seed is never selected, only pruned against.
const seedUnit = int64(math.MaxInt64)

type stageVol struct {
	j   int32
	vol float64
}

type bnbIncumbent struct {
	energy float64
	unit   int64
}

type bnbShared struct {
	s     *Solver
	ctx   context.Context
	g     *spg.Graph
	pl    *platform.Platform
	T     float64
	n     int
	cores int
	eval  func(*spg.Graph, *platform.Platform, *mapping.Mapping, float64) (*mapping.Result, error)

	weights     []float64
	maxCoreWork float64
	syms        [][]int
	allSyms     []int

	// Partition-side bound data: per-stage solo-cluster dynamic floors, the
	// aggregated lower adjacency (earlier-stage neighbours with volumes),
	// and the constant base (comm leakage + all solo floors).
	floors    *core.EnergyFloors
	hops      []float64 // mapping.HopExcess table, read-only
	soloFloor []float64
	lowerAdj  [][]stageVol
	egb       float64
	leakT     float64
	baseBound float64

	// Placement-side candidate masks (see place).
	balls coreBalls

	units   [][]int
	results []*core.Solution
	budget  int // per-unit placement budget

	nextUnit atomic.Int64
	inc      atomic.Pointer[bnbIncumbent]
	stop     atomic.Bool
	ctxHit   atomic.Bool

	placements  atomic.Int64
	prunedParts atomic.Int64
	prunedPlace atomic.Int64
	truncated   atomic.Bool
}

// offer installs (energy, unit) as the incumbent when it is lexicographically
// smaller than the current one.
func (sh *bnbShared) offer(energy float64, unit int64) {
	for {
		cur := sh.inc.Load()
		if cur != nil && (cur.energy < energy || (cur.energy == energy && cur.unit <= unit)) {
			return
		}
		if sh.inc.CompareAndSwap(cur, &bnbIncumbent{energy: energy, unit: unit}) {
			return
		}
	}
}

// threshold returns the current prune line: only bounds strictly above it
// are cut.
func (sh *bnbShared) threshold() float64 {
	cur := sh.inc.Load()
	if cur == nil {
		return math.Inf(1)
	}
	return cur.energy * (1 + pruneSlack)
}

// solveBnB runs the search on a prepared instance. seeded installs the
// DPA1D incumbent before the search starts; SolveStats always seeds, and
// only the tests turn it off to prove the seed never changes the result.
func (s *Solver) solveBnB(ctx context.Context, inst core.Instance, st *Stats, seeded bool) (*core.Solution, error) {
	g, pl, T := inst.Graph, inst.Platform, inst.Period
	n := g.N()
	sh := &bnbShared{
		s:           s,
		ctx:         ctx,
		g:           g,
		pl:          pl,
		T:           T,
		n:           n,
		cores:       pl.NumCores(),
		eval:        mapping.Evaluate,
		maxCoreWork: T * pl.MaxSpeed(),
		egb:         pl.EnergyPerGB,
		leakT:       pl.LeakPower * T,
		syms:        gridSymmetries(pl.P, pl.Q),
		budget:      s.MaxPlacements,
	}
	if s.General {
		sh.eval = mapping.EvaluateGeneral
	}
	sh.allSyms = make([]int, len(sh.syms))
	for i := range sh.allSyms {
		sh.allSyms[i] = i
	}
	sh.weights = make([]float64, n)
	for i := range sh.weights {
		sh.weights[i] = g.Stages[i].Weight
	}

	// Partition-side bound tables. A stage that cannot meet the period alone
	// at the fastest speed dooms every partition: report infeasibility
	// exactly as the exhaustive engine does (its generator can never place
	// the stage).
	sh.floors = core.NewEnergyFloors(g, pl)
	sh.hops = mapping.HopExcess(pl)
	sh.soloFloor = make([]float64, n)
	base := float64(pl.CommLeakPower * T)
	for i := 0; i < n; i++ {
		fl, ok := sh.floors.StageDynFloor(i, T)
		if !ok {
			return nil, core.ErrNoSolution
		}
		sh.soloFloor[i] = fl
		base += fl
	}
	sh.baseBound = base
	sh.balls = newCoreBalls(sh.cores, sh.hops)
	sh.lowerAdj = make([][]stageVol, n)
	for _, e := range g.Edges {
		i, j := e.Src, e.Dst
		if j > i {
			i, j = j, i
		}
		sh.lowerAdj[i] = append(sh.lowerAdj[i], stageVol{j: int32(j), vol: e.Volume})
	}

	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Incumbent seeding, on this goroutine before the search workers carve
	// their child arenas: DPA1D borrows child 0, as worker 0 does after it.
	if seeded {
		si := inst
		si.Scratch = inst.Scratch.Child(0)
		if e, ok := sh.seedEnergy(si); ok {
			sh.offer(e, seedUnit)
			st.Seeded, st.SeedEnergy = true, e
		}
	}

	target := 8 * workers
	if target < 16 {
		target = 16
	}
	sh.units = buildUnits(sh, target)
	if workers > len(sh.units) {
		workers = len(sh.units)
	}
	if workers < 1 {
		workers = 1
	}
	st.Units, st.Workers = len(sh.units), workers
	sh.results = make([]*core.Solution, len(sh.units))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Child arenas are carved here, in the coordinator, because Scratch
		// children may only be created by the arena's owning goroutine; each
		// worker then owns its child for the whole solve.
		var sc *core.Scratch
		if inst.Scratch != nil {
			sc = inst.Scratch.Child(w)
		}
		wk := newBnbWorker(sh, sc)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.run()
		}()
	}
	wg.Wait()

	st.Placements = sh.placements.Load()
	st.PrunedPartitions = sh.prunedParts.Load()
	st.PrunedPlacements = sh.prunedPlace.Load()
	st.Truncated = sh.truncated.Load()
	if sh.ctxHit.Load() {
		return nil, ctx.Err()
	}
	if st.Truncated {
		return nil, fmt.Errorf("%w: a search unit spent its %d-placement budget", ErrTooLarge, s.MaxPlacements)
	}
	// Deterministic reduction: ascending unit order, strict improvement —
	// the exhaustive engine's first-found-wins order, reconstructed.
	var best *core.Solution
	for _, sol := range sh.results {
		if sol == nil {
			continue
		}
		if best == nil || sol.Result.Energy < best.Result.Energy {
			best = sol
		}
	}
	if best == nil {
		return nil, core.ErrNoSolution
	}
	return best, nil
}

// seedEnergy runs DPA1D and returns the energy of its mapping stripped of
// pinned paths and re-evaluated under the solver's own evaluator; ok is false
// when DPA1D finds no mapping or the stripped one is invalid there, and the
// search then runs unseeded. Stripping matters for soundness: DPA1D pins
// snake paths, which lie outside the XY-routed search space; the stripped
// twin is exactly the mapping the search could itself produce, so its energy
// can never undercut the in-space optimum.
func (sh *bnbShared) seedEnergy(inst core.Instance) (float64, bool) {
	sol, err := core.NewDPA1D().Solve(inst)
	if err != nil || sol == nil || sol.Mapping == nil {
		return 0, false
	}
	m := sol.Mapping
	if len(m.Paths) > 0 {
		m = m.Clone()
		m.Paths = nil
	}
	res, err := sh.eval(sh.g, sh.pl, m, sh.T)
	if err != nil {
		return 0, false
	}
	return res.Energy, true
}

// buildUnits splits the partition tree into lexicographically ordered units:
// the feasible restricted-growth-string prefixes at the shallowest depth
// yielding at least target of them (or the full depth n). Prefix feasibility
// uses exactly the generator's cluster-capacity test, so every unit replays
// to a reachable search state.
func buildUnits(sh *bnbShared, target int) [][]int {
	var units [][]int
	part := make([]int, sh.n)
	work := make([]float64, sh.n)
	for depth := 1; ; depth++ {
		units = units[:0]
		var rec func(i, k int)
		rec = func(i, k int) {
			if i == depth {
				units = append(units, append([]int(nil), part[:depth]...))
				return
			}
			w := sh.weights[i]
			for c := 0; c <= k && c < sh.cores; c++ {
				if work[c]+w > sh.maxCoreWork {
					continue
				}
				part[i] = c
				old := work[c]
				work[c] = old + w
				nk := k
				if c == k {
					nk = k + 1
				}
				rec(i+1, nk)
				work[c] = old
			}
		}
		rec(0, 0)
		if depth == sh.n || len(units) >= target {
			return units
		}
	}
}

type bnbWorker struct {
	sh *bnbShared

	part    []int
	work    []float64
	clFloor []float64 // dynamic floor of each open cluster's current work
	bound   float64

	placeBuf []int
	imgBuf   []int
	// free is the bitmask of cores no placed cluster occupies; cand holds
	// one row per placement depth, the cores left to try at that depth.
	free []uint64
	cand []uint64
	// activeBuf rows hold the surviving-symmetry lists per placement depth,
	// same discipline as the exhaustive engine.
	activeBuf [][]int
	account   *mapping.PrefixAccount
	qbuf      *quotientBuf

	localBest   *core.Solution
	unit        int64
	nodes       int
	tick        int
	unitTrunc   bool
	prunedParts int64
	prunedPlace int64
}

func newBnbWorker(sh *bnbShared, sc *core.Scratch) *bnbWorker {
	n, cores := sh.n, sh.cores
	w := &bnbWorker{sh: sh}
	// Scratch buffers are dirty by contract; everything read before first
	// write is zeroed below. All methods are nil-safe, falling back to the
	// heap when no arena is attached.
	w.part = sc.Ints(n)
	w.work = sc.F64(n)
	w.clFloor = sc.F64(n)
	w.placeBuf = sc.Ints(cores)[:0]
	w.imgBuf = sc.Ints(cores)
	w.activeBuf = sc.IntRows(cores+1, len(sh.syms))
	maxK := min(n, cores)
	w.account = mapping.NewPrefixAccount(maxK, sh.hops)
	w.qbuf = newQuotientBuf(maxK)
	words := sh.balls.words
	w.free = make([]uint64, words)
	for c := 0; c < cores; c++ {
		w.free[c>>6] |= 1 << (c & 63)
	}
	w.cand = make([]uint64, maxK*words)
	return w
}

func (w *bnbWorker) run() {
	for {
		if w.sh.stop.Load() {
			return
		}
		u := w.sh.nextUnit.Add(1) - 1
		if u >= int64(len(w.sh.units)) {
			return
		}
		w.runUnit(u)
	}
}

func (w *bnbWorker) runUnit(u int64) {
	sh := w.sh
	w.unit = u
	w.nodes = 0
	w.unitTrunc = false
	w.localBest = nil
	w.bound = sh.baseBound
	for c := 0; c < sh.n; c++ {
		w.work[c] = 0
		w.clFloor[c] = 0
	}
	w.placeBuf = w.placeBuf[:0]

	// Replay the unit's prefix. Every assignment repeats the generator's
	// exact float operations, so the state (works, bound) is bit-identical
	// to a direct depth-first descent; the bound check against the current
	// incumbent is the same sound prune the descent would apply.
	prefix := sh.units[u]
	k := 0
	pruned := false
	thr := sh.threshold()
	for i, c := range prefix {
		nb, nw, nf, feasible := w.tryAssign(i, c, k)
		if !feasible {
			pruned = true // unreachable: prefixes are generated feasibly
			break
		}
		if nb > thr {
			w.prunedParts++
			pruned = true
			break
		}
		w.part[i] = c
		w.work[c], w.clFloor[c], w.bound = nw, nf, nb
		if c == k {
			k++
		}
	}
	if !pruned {
		w.gen(len(prefix), k)
	}

	sh.results[u] = w.localBest
	sh.placements.Add(int64(w.nodes))
	sh.prunedParts.Add(w.prunedParts)
	sh.prunedPlace.Add(w.prunedPlace)
	w.prunedParts, w.prunedPlace = 0, 0
	if w.unitTrunc {
		sh.truncated.Store(true)
		sh.stop.Store(true)
	}
}

// tryAssign prices assigning stage i to cluster c (k clusters currently
// open): the cluster's floor moves from its current value to the floor of
// the grown work, stage i stops contributing its solo floor, a new cluster
// pays the period's leakage, and every edge from i to an earlier stage in a
// different cluster starts paying its one-hop link-energy floor.
func (w *bnbWorker) tryAssign(i, c, k int) (newBound, newWork, newFloor float64, feasible bool) {
	sh := w.sh
	newWork = w.work[c] + sh.weights[i]
	if newWork > sh.maxCoreWork {
		return 0, 0, 0, false
	}
	newFloor, _ = sh.floors.DynFloor(newWork, sh.T)
	delta := newFloor - w.clFloor[c] - sh.soloFloor[i]
	if c == k {
		delta += sh.leakT
	}
	for _, sv := range sh.lowerAdj[i] {
		if w.part[sv.j] != c {
			delta += float64(sv.vol * sh.egb)
		}
	}
	return w.bound + delta, newWork, newFloor, true
}

func (w *bnbWorker) checkStop() bool {
	sh := w.sh
	w.tick++
	if w.tick&255 == 0 {
		if sh.stop.Load() {
			return true
		}
		if sh.ctx.Err() != nil {
			sh.ctxHit.Store(true)
			sh.stop.Store(true)
			return true
		}
	}
	return false
}

func (w *bnbWorker) gen(i, k int) {
	sh := w.sh
	if w.unitTrunc || w.checkStop() {
		return
	}
	if i == sh.n {
		w.evaluate(k)
		return
	}
	thr := sh.threshold()
	for c := 0; c <= k && c < sh.cores; c++ {
		nb, nw, nf, feasible := w.tryAssign(i, c, k)
		if !feasible {
			continue
		}
		if nb > thr {
			w.prunedParts++
			continue
		}
		w.part[i] = c
		ow, of, ob := w.work[c], w.clFloor[c], w.bound
		w.work[c], w.clFloor[c], w.bound = nw, nf, nb
		nk := k
		if c == k {
			nk = k + 1
		}
		w.gen(i+1, nk)
		w.work[c], w.clFloor[c], w.bound = ow, of, ob
		if w.unitTrunc {
			return
		}
	}
}

func (w *bnbWorker) evaluate(k int) {
	sh := w.sh
	if k > sh.cores {
		return
	}
	if !sh.general() && !quotientAcyclic(sh.g, w.part, k, w.qbuf) {
		return
	}
	if !w.account.Reset(sh.g, sh.pl, sh.T, w.part, k) {
		return
	}
	if w.account.Floor > sh.threshold() {
		w.prunedParts++
		return
	}
	w.placeBuf = w.placeBuf[:0]
	w.place(0, k, sh.allSyms, 0)
}

func (sh *bnbShared) general() bool { return sh.s.General }

// consume meters one complete placement against the per-unit budget; it
// reports false when the budget is spent, marking the unit truncated.
func (w *bnbWorker) consume() bool {
	if w.nodes >= w.sh.budget {
		w.unitTrunc = true
		return false
	}
	w.nodes++
	return true
}

func (w *bnbWorker) place(c, k int, active []int, extra float64) {
	sh := w.sh
	if w.unitTrunc || w.checkStop() {
		return
	}
	if c == k {
		if !w.consume() {
			return
		}
		if w.consider(w.placeBuf, k) {
			return
		}
		// Same orbit-recovery path as the exhaustive engine: energy is
		// symmetry-invariant but link-capacity feasibility is not, so when
		// the canonical member is invalid the rest of the orbit is tried.
		for _, perm := range sh.syms {
			if !w.consume() {
				return
			}
			for ci, coreIdx := range w.placeBuf {
				w.imgBuf[ci] = perm[coreIdx]
			}
			w.consider(w.imgBuf[:k], k)
		}
		return
	}
	thr := sh.threshold()
	// Candidate cores: the free ones, cut to the hop radius each placed peer
	// still allows. A peer d with pair volume v charges a core at hop excess
	// H the term (v*H)*egb, which is at least (v*h)*egb for every h <= H
	// (rounding is monotone) and at most the float sum PlaceExtra returns
	// (its terms are non-negative). So once (Floor+extra) + (v*h)*egb
	// exceeds thr, every core at excess h or more from d fails the bound
	// test below; the rest lie within Manhattan distance h of d. Every core
	// the test could pass survives, and survivors are walked in ascending
	// index order, so the visited nodes and leaves are unchanged.
	words := sh.balls.words
	cand := w.cand[c*words : (c+1)*words]
	copy(cand, w.free)
	base := w.account.Floor + extra
	for _, d := range w.account.Peers(c) {
		if h := sh.balls.radius(base, w.account.Volume(int(d), c), sh.egb, thr); h > 0 {
			for i, m := range sh.balls.ball(h, w.placeBuf[d]) {
				cand[i] &= m
			}
		}
	}
	for i, f := range w.free {
		w.prunedPlace += int64(bits.OnesCount64(f &^ cand[i]))
	}
	for i := range cand {
		for m := cand[i]; m != 0; m &= m - 1 {
			coreIdx := i<<6 | bits.TrailingZeros64(m)
			nonCanonical := false
			child := w.activeBuf[c+1][:0]
			for _, si := range active {
				img := sh.syms[si][coreIdx]
				if img < coreIdx {
					nonCanonical = true
					break
				}
				if img == coreIdx {
					child = append(child, si)
				}
			}
			if nonCanonical {
				continue
			}
			// Prefix energy bound: partition floor + hop excess of the placed
			// pairs. PlaceExtra depends only on pairwise Manhattan distances,
			// so the bound is identical across a prefix's whole symmetry orbit
			// and pruning composes exactly with the canonicity reduction above.
			d := w.account.PlaceExtra(sh.pl, c, coreIdx, w.placeBuf)
			if w.account.Floor+extra+d > thr {
				w.prunedPlace++
				continue
			}
			bit := uint64(1) << (coreIdx & 63)
			w.free[i] &^= bit
			w.placeBuf = append(w.placeBuf, coreIdx)
			w.place(c+1, k, child, extra+d)
			w.placeBuf = w.placeBuf[:len(w.placeBuf)-1]
			w.free[i] |= bit
			if w.unitTrunc {
				return
			}
		}
	}
}

func (w *bnbWorker) consider(pb []int, k int) bool {
	sh := w.sh
	m := buildMapping(sh.g, sh.pl, sh.T, w.part, pb)
	if m == nil {
		return false
	}
	res, err := sh.eval(sh.g, sh.pl, m, sh.T)
	if err != nil {
		return false
	}
	if w.localBest == nil || res.Energy < w.localBest.Result.Energy {
		w.localBest = &core.Solution{Heuristic: sh.s.Name(), Mapping: m, Result: res}
	}
	sh.offer(res.Energy, w.unit)
	return true
}

// coreBalls is the per-solve table of hop-radius core masks. ball(h, x) is
// the set of cores within Manhattan distance h of core x, for 1 <= h <=
// maxH, as words 64-bit words (bit b of word i is core 64*i+b). maxH is the
// grid's largest hop excess, its diameter less one: a radius at the
// diameter would remove no core.
type coreBalls struct {
	cores, words, maxH int
	bits               []uint64
}

// newCoreBalls builds the table from hops, the platform's
// mapping.HopExcess table: core y lies within distance h of x exactly when
// its hop excess from x is below h.
func newCoreBalls(cores int, hops []float64) coreBalls {
	b := coreBalls{cores: cores, words: (cores + 63) >> 6}
	for _, e := range hops {
		b.maxH = max(b.maxH, int(e))
	}
	b.bits = make([]uint64, b.maxH*cores*b.words)
	for h := 1; h <= b.maxH; h++ {
		for x := 0; x < cores; x++ {
			row := b.ball(h, x)
			for y := 0; y < cores; y++ {
				if hops[x*cores+y] < float64(h) {
					row[y>>6] |= 1 << (y & 63)
				}
			}
		}
	}
	return b
}

func (b *coreBalls) ball(h, x int) []uint64 {
	at := ((h-1)*b.cores + x) * b.words
	return b.bits[at : at+b.words]
}

// radius returns the smallest hop excess h >= 1 at which a peer of pair
// volume v alone lifts the prefix bound base past thr, or 0 when no core of
// the grid is that far. The product is rounded on its own, so no fused
// multiply-add can make the mask stricter than the bound test, whose sum is
// never below any of its rounded terms.
func (b *coreBalls) radius(base, v, egb, thr float64) int {
	for h := 1; h <= b.maxH; h++ {
		if base+float64(v*float64(h)*egb) > thr {
			return h
		}
	}
	return 0
}
