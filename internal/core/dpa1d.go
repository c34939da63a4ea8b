package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// DPA1D configures the CMP as a uni-directional uni-line of r = p*q cores
// (embedded as a snake, Section 5.4) and computes the optimal 1D solution
// with the dynamic programming algorithm of Theorem 1: admissible subgraphs
// (downsets) are split into consecutive chunks, one per processor, subject to
// the cut bandwidth constraint Cout(G')/BW <= T. For a linear chain the
// result is optimal even among 2D mappings, since a chain cannot exploit the
// discarded links; for graphs of large elevation the downset lattice explodes
// and the heuristic fails, exactly as reported in Section 6.2.
type DPA1D struct {
	// MaxStates caps the number of downsets interned before giving up.
	MaxStates int
	// MaxTransitions caps the total number of downset expansions explored.
	MaxTransitions int
}

// NewDPA1D returns the default configuration. The transition budget counts
// DP relaxations (per processor layer), so it scales with the core count;
// the state budget is what stops elevation blow-ups early.
func NewDPA1D() *DPA1D {
	return &DPA1D{MaxStates: 150_000, MaxTransitions: 24_000_000}
}

// Name implements Heuristic.
func (h *DPA1D) Name() string { return "DPA1D" }

// ErrBudget wraps ErrNoSolution for failures caused by state explosion
// rather than by infeasibility.
var ErrBudget = errors.New("state budget exhausted")

// verdictKey identifies one DPA1D run: the period, which scales the chunk
// cap and the link capacity, and the verdictClass the run shares with runs
// at other periods. solutionMemoKey and the family's claim gate pin it
// exactly; a budget verdict replays at its own period and at every looser
// one (see verdict).
type verdictKey struct {
	T float64
	verdictClass
}

// verdictClass is everything a run's exploration sequence — and therefore
// its budget failure point — depends on besides the period and the graph
// (and, for member-scoped verdicts, its volumes): both budgets, the
// bandwidth and the speed ladder (chunk-energy finiteness gates which states
// later layers expand). A recorded verdict replays only for an exactly equal
// class. The core count is not in it: solve1D reads it only as its layer
// bound, so a run that ran out of budget in layer k runs out identically on
// every chain of at least k cores (see verdict). Energy magnitudes never
// influence which states are touched, so dynamic powers and leakage stay
// out of it.
type verdictClass struct {
	maxStates, maxTransitions int
	bw                        float64
	ladder                    string
}

// verdict is a budget-failed run's outcome: the period T it ran at, the
// processor layer it ran out of budget in, and the error it returned.
// Layers 1..layer of the run are the same on any chain of at least layer
// cores, so the verdict replays at T for exactly those chains; a shorter
// chain stops before the failing layer and must run.
//
// It also replays on those chains at every period T′ ≥ lifted, where lifted
// is T·sumMargin(n) rounded, for a graph of n stages. The run at T′ admits
// a superset at each of the three places the period enters a run:
//
//   - The DFS prune (chunk cap T·MaxSpeed). Every chunk the run at T
//     enumerated fits the larger cap: the two DFS trees may reach a downset
//     along different paths, but both path sums add the weights of the same
//     stages, so they agree up to the rounding the margin covers.
//   - MinFeasibleSpeed, whose tolerance 1+1e-12 already admits every chunk
//     the prune lets through at the top speed: chunk energies stay finite.
//   - The cut check (link capacity BW·T), which grows with T.
//
// So, layer by layer, every downset with a finite energy in the run at T
// has one in the run at T′, every downset the run at T expanded is expanded
// at T′, and each expansion list at T′ contains the one at T. The run at T′
// therefore touches at least as many states and transitions, makes progress
// in every layer the run at T did, and runs out of budget by the same layer
// at the latest: it cannot succeed, and a budget failure is what it
// returns. The replayed error is the recorded one, which may name the
// other budget than the run at T′ would trip first; callers only test
// errors.Is(err, ErrBudget), and campaign outcomes record OK false either
// way.
//
// The margin follows the max-cut certificate's derivation (see
// familyVerdicts) with the stages in the role of the edges: a chunk sum adds
// at most n non-negative weights, so two path sums of one chunk are within
// (1+γ)/(1−γ) of each other, and the chunk caps and T·sumMargin(n) round
// by a factor 1±u each; the product stays below sumMargin(n) = 1+8(n+4)u.
// The protocol's tenfold period steps sit far above it.
type verdict struct {
	T, lifted float64
	layer     int
	err       error
}

// newVerdict is the verdict of a run at period T on a graph of n stages.
func newVerdict(T float64, n, layer int, err error) verdict {
	return verdict{T: T, lifted: T * sumMargin(n), layer: layer, err: err}
}

// replaysAt reports whether v answers a run at period T on a chain of cores
// processors.
func (v *verdict) replaysAt(T float64, cores int) bool {
	return v.layer <= cores && (T == v.T || T >= v.lifted)
}

// verdictStore holds recorded verdicts by class.
type verdictStore struct {
	mu sync.Mutex
	m  map[verdictClass][]verdict
}

// lookup returns the recorded error that answers a run of key on a chain of
// cores processors, nil if none does. Of several, the one recorded at the
// largest period answers, whatever order they were recorded in; verdicts
// recorded at one period by runs of one member are identical.
func (vs *verdictStore) lookup(key verdictKey, cores int) error {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	list := vs.m[key.verdictClass]
	var best *verdict
	for i := range list {
		if v := &list[i]; v.replaysAt(key.T, cores) && (best == nil || v.T > best.T) {
			best = v
		}
	}
	if best == nil {
		return nil
	}
	return best.err
}

func (vs *verdictStore) record(key verdictClass, v verdict) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.m == nil {
		vs.m = make(map[verdictClass][]verdict)
	}
	vs.m[key] = append(vs.m[key], v)
}

// MemoryFootprint implements spg.Footprinter with the flat constants the spg
// estimates use.
func (vs *verdictStore) MemoryFootprint() int64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	const classBytes = int64(unsafe.Sizeof(verdictClass{})) + auxMapEntryBytes + auxSliceHeaderBytes
	var b int64
	for k, list := range vs.m {
		b += classBytes + int64(len(k.ladder)) + int64(len(list))*int64(unsafe.Sizeof(verdict{}))
	}
	return b
}

// solutionMemoKey identifies one DPA1D run's optimal chunk sequence. The
// verdict key pins everything the exploration depends on; the chunk
// sequence additionally depends on the chain length (the best layer is
// chosen among the first cores layers) and on the platform's energy model —
// chunk energies (dynamic powers, leakage) and the communication energy rate
// steer the DP's argmin even when the explored state set is identical — so
// both join the key. Two platforms sharing a ladder but not powers therefore
// never share solutions.
type solutionMemoKey struct {
	verdictKey
	cores  int
	energy string
}

// dpa1dEnergySig fingerprints every platform quantity the solve1D objective
// reads beyond the key's explicit fields: the speed/power ladder with
// leakage (energySig, shared with the rectangle tables) plus the per-GB link
// energy charged on chunk cuts. CommLeakPower stays out: it is a
// mapping-independent constant added by the final evaluation, so it never
// influences which chunk sequence wins.
func dpa1dEnergySig(pl *platform.Platform) string {
	b := []byte(energySig(pl))
	b = append(b, ';')
	b = appendHexFloat(b, pl.EnergyPerGB)
	return string(b)
}

// budgetMemo records, per family member, the outcomes of past DPA1D runs:
// budget-failure verdicts and successful chunk decompositions. A
// budget-failed run evicts its half-enumerated downset space (see Solve), so
// without this memo every identical later run — the same CCR cell in a
// repeated campaign sweep, or on the next larger grid — re-burned the entire
// enumeration just to fail at the same point; the run is deterministic given
// the key, so replaying the recorded error is bit-identical and free.
//
// Successful runs memoize their chunk sequence (not the Solution): a warm
// sweep replays the chunks through finishSnake, which rebuilds mapping,
// routes and evaluation from scratch, so callers never alias mappings while
// skipping the whole DP. The memo stores a private copy and hands out
// fresh copies (copy-on-return), keeping the cached sequence immutable even
// if a caller mutates what it received.
type budgetMemo struct {
	// cutBound bounds every downset cut of the member (see cutBound);
	// immutable after construction.
	cutBound float64

	verdicts verdictStore

	mu  sync.Mutex
	sol map[solutionMemoKey][][]int
}

type budgetMemoAuxKey struct{}

func budgetMemoFor(an *spg.Analysis) *budgetMemo {
	return an.MemberAux(budgetMemoAuxKey{}, func() any {
		return &budgetMemo{
			cutBound: cutBound(an.Graph()),
			sol:      make(map[solutionMemoKey][][]int),
		}
	}).(*budgetMemo)
}

// cutBound returns g's total edge volume, summed in edge order exactly as
// DownsetSpace.Cout sums a cut. With every volume >= 0, floating-point
// addition is monotone and never decreases a partial sum, so no cut — the
// same sum over a subset of the edges — exceeds it. A negative or NaN
// volume voids the bound (+Inf).
func cutBound(g *spg.Graph) float64 {
	var total float64
	for _, e := range g.Edges {
		if !(e.Volume >= 0) {
			return math.Inf(1)
		}
		total += e.Volume
	}
	return total
}

// MemoryFootprint implements spg.Footprinter: verdicts and chunk sequences
// count toward Analysis.MemoryFootprint and so toward the campaign cache's
// byte account (chunk sequences are the only entries of real size).
func (bm *budgetMemo) MemoryFootprint() int64 {
	b := bm.verdicts.MemoryFootprint()
	bm.mu.Lock()
	defer bm.mu.Unlock()
	const keyBytes = int64(unsafe.Sizeof(solutionMemoKey{}))
	for k, chunks := range bm.sol {
		b += keyBytes + int64(len(k.ladder)+len(k.energy)) + auxMapEntryBytes + auxSliceHeaderBytes
		for _, c := range chunks {
			b += auxSliceHeaderBytes + int64(len(c))*8
		}
	}
	return b
}

// copyChunks deep-copies a chunk sequence; both record and replay copy, so
// the memoized sequence is never shared with any caller.
func copyChunks(chunks [][]int) [][]int {
	out := make([][]int, len(chunks))
	for i, c := range chunks {
		out[i] = append([]int(nil), c...)
	}
	return out
}

// solution returns a fresh copy of the memoized chunk sequence for key.
func (bm *budgetMemo) solution(key solutionMemoKey) ([][]int, bool) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	chunks, ok := bm.sol[key]
	if !ok {
		return nil, false
	}
	return copyChunks(chunks), true
}

// recordSolution memoizes a private copy of a successful run's chunks.
func (bm *budgetMemo) recordSolution(key solutionMemoKey, chunks [][]int) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	bm.sol[key] = copyChunks(chunks)
}

// familyVerdicts holds the budget verdicts a scale family shares. A run
// reads edge volumes in two places only: the cut check, which skips a state
// whose cut exceeds the link capacity, and the communication energy, whose
// magnitude changes finite DP values but never which states are expanded,
// the layer's progress or the budget counts. A run whose cut check rejected
// no state therefore explores exactly what a member would explore if its
// own cut check rejected none of the same states. Such runs publish their
// verdicts here, and a member replays one at its own period T′ — the
// verdict's period or a looser one (see verdict) — when either certificate
// below shows that its cut check at T′ cannot fire on those states:
//
//   - Its cutBound is within the link capacity LinkCapacity(T′): no cut of
//     the member exceeds it at all (the CCR variants light enough for the
//     link).
//   - Max-cut: ρ·maxCut·(1+8(|E|+4)u) ≤ LinkCapacity(T′), where maxCut is
//     the largest cut the recorded run computed, u = 2⁻⁵³, and
//     ρ = max v_m(e)/v_r(e) over the edges with v_m(e) > 0, comparing the
//     member's volumes v_m with the recorder's v_r (+Inf if some such
//     v_r(e) is 0; see cutScale).
//
// Why the max-cut certificate is sound. The member's run and the recorded
// one share the key, the stage weights and so the lattice, so the two runs
// check the same states in the same order until the member's check first
// rejects a state the recorder's accepted: only a rejection can make them
// diverge. Every state D checked up to that point was checked by the
// recorder, so its recorded cut is at most maxCut. Both cuts of D are
// recursive sums, in edge order, of n ≤ |E| non-negative terms over the
// same edges, so with γ = (n−1)u/(1−(n−1)u) each computed sum is within a
// factor 1±γ of its exact value; and per edge v_m(e) ≤ ρ·v_r(e)/(1−u),
// since ρ holds rounded quotients. Hence
//
//	cut_m(D) ≤ (1+γ)/((1−γ)(1−u)) · ρ · cut_r(D) ≤ (1+γ)/((1−γ)(1−u)) · ρ · maxCut.
//
// The certificate's two products round down by at most a factor (1−u)²
// (barring underflow, as throughout), so it bounds cut_m(D) whenever
// (1+γ)/((1−γ)(1−u)³) ≤ 1+8(|E|+4)u. That holds for every |E| ≤ 2⁴⁹,
// where the left side stays below 1+3|E|u+5u; the margin itself is an
// exact double. So the member rejects none of the recorder's states: its
// run is the recorded run, up to the same budget failure, and its verdict
// is the recorded verdict.
//
// At a looser period the runs no longer coincide, but the recorded run,
// rejecting nothing, is the run at T with no cut check at all. The member's
// run at T′ prunes chunks against a larger cap and, by the certificate at
// LinkCapacity(T′), accepts every state the recorded run checked, so the
// argument on verdict applies unchanged: layer by layer it expands every
// state the recorded run expanded, with lists containing the recorded ones,
// and runs out of budget by the same layer. The certificate must be checked
// at the querying period's capacity: the recorder's capacity is smaller and
// certifies less, so checking it instead would turn away the heavy members
// the lift exists for.
//
// The store also gates identical runs: a member about to run a key that a
// sibling is already running waits for the sibling's verdict instead of
// repeating its enumeration alongside it.
type familyVerdicts struct {
	mu       sync.Mutex
	m        map[verdictClass][]familyVerdict // append-only
	running  map[verdictKey]struct{}
	released sync.Cond // broadcast whenever a running key is released; L is &mu
}

// familyVerdict is a published verdict with its max-cut certificate: the
// largest cut the recorded run computed and the recorder's graph, an
// immutable family member whose edge volumes scale that cut to any other
// member's.
type familyVerdict struct {
	verdict
	maxCut float64
	rec    *spg.Graph
}

type familyVerdictsAuxKey struct{}

func familyVerdictsFor(an *spg.Analysis) *familyVerdicts {
	return an.Aux(familyVerdictsAuxKey{}, func() any {
		fv := &familyVerdicts{
			m:       make(map[verdictClass][]familyVerdict),
			running: make(map[verdictKey]struct{}),
		}
		fv.released.L = &fv.mu
		return fv
	}).(*familyVerdicts)
}

// lookup returns the recorded error that answers a run of key on a chain
// of cores processors by member g, whose cutBound is bound, at link
// capacity linkCap — LinkCapacity(key.T), the querying period's — and nil
// if none does. A verdict answers when it replays at key.T and either
// certificate (see familyVerdicts) admits g; of several, the one recorded at
// the largest period answers, whatever order they were recorded in. Two
// verdicts published at one period come from runs that rejected no state,
// so both are the run with no cut check, and carry the same error. ρ is
// computed only for a heavy member that has a verdict to replay.
func (fv *familyVerdicts) lookup(key verdictKey, cores int, g *spg.Graph, bound, linkCap float64) error {
	fv.mu.Lock()
	list := fv.m[key.verdictClass]
	fv.mu.Unlock()
	var best *familyVerdict
	for i := range list {
		v := &list[i]
		if !v.replaysAt(key.T, cores) || (best != nil && v.T <= best.T) {
			continue
		}
		if bound <= linkCap || cutScale(g, v.rec)*v.maxCut*sumMargin(len(g.Edges)) <= linkCap {
			best = v
		}
	}
	if best == nil {
		return nil
	}
	return best.err
}

// record appends v to its class's list. Lists are only ever appended to,
// so lookup iterates the prefix it loaded without holding the lock.
func (fv *familyVerdicts) record(key verdictClass, v familyVerdict) {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	fv.m[key] = append(fv.m[key], v)
}

// MemoryFootprint implements spg.Footprinter with the flat constants the spg
// estimates use. The recorder's graph belongs to its member analysis and is
// not counted here.
func (fv *familyVerdicts) MemoryFootprint() int64 {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	const classBytes = int64(unsafe.Sizeof(verdictClass{})) + auxMapEntryBytes + auxSliceHeaderBytes
	var b int64
	for k, list := range fv.m {
		b += classBytes + int64(len(k.ladder)) + int64(len(list))*int64(unsafe.Sizeof(familyVerdict{}))
	}
	return b
}

// cutScale returns ρ, the largest ratio of member m's edge volume to the
// recorder r's over the edges where m's volume is not zero: every cut of m
// is at most ρ times the same cut of r, up to rounding. It is +Inf when an
// edge with v_m ≠ 0 has v_r ≤ 0, and NaN — which fails every certificate —
// when a volume is NaN. m and r are members of one scale family, so their
// edges correspond index by index.
func cutScale(m, r *spg.Graph) float64 {
	rho := 0.0
	for i, e := range m.Edges {
		if e.Volume == 0 {
			continue
		}
		vr := r.Edges[i].Volume
		if !(vr > 0) {
			return math.Inf(1)
		}
		rho = math.Max(rho, e.Volume/vr)
	}
	return rho
}

// sumMargin is the rounding factor 1+8(terms+4)·2⁻⁵³ that bounds how far
// apart two computations comparing recursive sums of at most terms
// non-negative values can land: the max-cut certificate's (terms = edges)
// and the period lift's (terms = stages, see verdict).
func sumMargin(terms int) float64 {
	return 1 + math.Ldexp(float64(8*(terms+4)), -53)
}

// claim registers the caller as running key and reports true, or — when a
// sibling already runs it — waits until no sibling does and reports false,
// so the caller looks at the stores again. A true return obliges the caller
// to release the key.
func (fv *familyVerdicts) claim(key verdictKey) bool {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	if _, busy := fv.running[key]; !busy {
		fv.running[key] = struct{}{}
		return true
	}
	for {
		fv.released.Wait()
		if _, busy := fv.running[key]; !busy {
			return false
		}
	}
}

func (fv *familyVerdicts) release(key verdictKey) {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	delete(fv.running, key)
	fv.released.Broadcast()
}

// dpa1dWork counts the DPA1D runs this process executed — Solves that got
// past every memo and verdict replay — and how many of them ran out of
// budget. Work-count regression tests read it.
var dpa1dWork struct{ runs, budgetFailures atomic.Int64 }

// Solve implements Heuristic.
func (h *DPA1D) Solve(inst Instance) (*Solution, error) {
	inst = inst.Analyzed()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	pl, T := inst.Platform, inst.Period
	key := verdictKey{T: T, verdictClass: verdictClass{
		maxStates: h.MaxStates, maxTransitions: h.MaxTransitions,
		bw:     pl.BW,
		ladder: speedLadderSig(pl),
	}}
	cores := pl.NumCores()
	an := inst.Analysis
	memo := budgetMemoFor(an)
	family := familyVerdictsFor(an)
	solKey := solutionMemoKey{key, cores, dpa1dEnergySig(pl)}
	for {
		// A budget failure recorded for this configuration, at this period
		// or a tighter one, replays immediately: the run it summarizes would
		// burn the whole enumeration again only to fail identically, and a
		// run at a looser period would fail by the same layer (see verdict).
		if err := memo.verdicts.lookup(key, cores); err != nil {
			return nil, err
		}
		if err := family.lookup(key, cores, an.Graph(), memo.cutBound, pl.LinkCapacity(T)); err != nil {
			return nil, err
		}
		// A memoized successful run replays its chunk sequence straight
		// through finishSnake: the DP is deterministic given the key, the
		// member's graph and the platform's energy model (all in solKey), so
		// the rebuilt mapping and its evaluation are bit-identical to
		// re-running it — and warm sweeps skip the enumeration entirely.
		if chunks, ok := memo.solution(solKey); ok {
			return finishSnake(h.Name(), inst, chunks)
		}
		// A sibling running the same key records its verdict before it
		// releases the key; wait for it, then look again.
		if family.claim(key) {
			break
		}
	}
	defer family.release(key)
	ds, err := an.DownsetSpace(h.MaxStates)
	if err != nil {
		return nil, fmt.Errorf("%w: %v (%w)", ErrNoSolution, err, ErrBudget)
	}
	// The space may be shared through the analysis cache and with sibling
	// members; a private run cursor makes it fail (or succeed) exactly where
	// a freshly built one would, whatever other runs do concurrently.
	run := ds.NewRun()
	defer run.Close()
	dpa1dWork.runs.Add(1)
	chunks, tr, err := solve1D(inst, ds, run, h.MaxTransitions)
	if err != nil {
		if errors.Is(err, ErrBudget) {
			dpa1dWork.budgetFailures.Add(1)
			// A partially enumerated space is dead weight for future runs;
			// drop it so the next period starts from a fresh space, exactly
			// like the uncached path — and remember the verdict so the next
			// identical run skips the burn altogether.
			an.EvictDownsetSpace(h.MaxStates, ds)
			v := newVerdict(T, an.Graph().N(), tr.layer, err)
			memo.verdicts.record(key.verdictClass, v)
			if !tr.cutRejected {
				family.record(key.verdictClass, familyVerdict{verdict: v, maxCut: tr.maxCut, rec: an.Graph()})
			}
		}
		return nil, err
	}
	memo.recordSolution(solKey, chunks)
	return finishSnake(h.Name(), inst, chunks)
}

// runTrace is what a DPA1D run reports besides its chunks, for its budget
// verdict: the processor layer it stopped in, whether its cut check
// rejected any state, and the largest cut it computed (the max-cut
// certificate's maxCut, see familyVerdicts).
type runTrace struct {
	layer       int
	cutRejected bool
	maxCut      float64
}

// solve1D runs the Theorem 1 DP on a uni-directional chain of
// pl.NumCores() processors, charging run's budget, and returns the optimal
// chunk sequence. The core count is read only as the bound on the number of
// layers.
func solve1D(inst Instance, ds *spg.DownsetSpace, run *spg.Run, maxTransitions int) ([][]int, runTrace, error) {
	pl, T := inst.Platform, inst.Period
	r := pl.NumCores()
	maxChunk := T * pl.MaxSpeed()
	linkCap := pl.LinkCapacity(T)

	// chunkEnergy is Ecal of Theorem 1: leakage plus dynamic energy at the
	// slowest feasible speed.
	chunkEnergy := func(work float64) float64 {
		_, idx, ok := pl.MinFeasibleSpeed(work, T)
		if !ok {
			return math.Inf(1)
		}
		return pl.CoreEnergy(work, T, idx)
	}

	const unset = -1
	sc := inst.Scratch
	type layer struct {
		energy []float64
		parent []int32
	}
	newLayer := func(states int) *layer {
		// Layers are carved from the scratch arena with capacity headroom so
		// grow's in-place appends stay inside the region reserved here; a run
		// that interns more states than the headroom covers spills the layer
		// onto the heap, which changes nothing but the allocator.
		capHint := states + states/4 + 64
		l := &layer{energy: sc.F64(capHint)[:states], parent: sc.I32(capHint)[:states]}
		for i := range l.energy {
			l.energy[i] = math.Inf(1)
			l.parent[i] = unset
		}
		return l
	}
	grow := func(l *layer, states int) {
		for len(l.energy) < states {
			l.energy = append(l.energy, math.Inf(1))
			l.parent = append(l.parent, unset)
		}
	}

	// The DP is keyed by run indices (per-epoch touch order: empty = 0,
	// full = 1), not by global downset ids: run indices are dense — sized by
	// this run's states even when the shared space holds leftovers from
	// earlier periods — and identical between fresh and warmed spaces, so
	// tables, iteration order and floating-point tie-breaking never depend on
	// interning history.
	const empty, full = 0, 1
	transitions := 0

	// A state's expansion list, chunk energies and outgoing cut are the same
	// in every layer, so they are fetched and evaluated once per state and
	// replayed as pure array math in the remaining r-1 layers. The lists are
	// replayed straight into scratch memory: run.Expand writes each
	// successor's run index and chunk work there, and the work is turned
	// into its chunk energy in place. runStates shadows run.Count() locally:
	// it only grows when an expansion list is first built (memoized replays
	// touch nothing new).
	type stateExp struct {
		to    []int32   // successor run index per expansion
		chunk []float64 // chunkEnergy per expansion
		commE float64   // cut * EnergyPerGB
		done  bool
	}
	memo := []stateExp{}
	cuts := []float64{} // per run index; negative = not yet computed
	runStates := run.Count()
	growState := func(id int) {
		for len(memo) <= id {
			memo = append(memo, stateExp{})
			cuts = append(cuts, -1)
		}
	}
	scratchLists := func(n int) ([]int32, []float64) { return sc.I32(n), sc.F64(n) }
	tr := runTrace{layer: 1}
	cutOf := func(id int) float64 {
		growState(id)
		if cuts[id] < 0 {
			cuts[id] = run.Cout(id)
			tr.maxCut = math.Max(tr.maxCut, cuts[id])
		}
		return cuts[id]
	}
	expand := func(id int) (*stateExp, error) {
		growState(id)
		if memo[id].done {
			return &memo[id], nil
		}
		to, chunk, err := run.Expand(id, maxChunk, scratchLists)
		if err != nil {
			return nil, err
		}
		for j, w := range chunk {
			chunk[j] = chunkEnergy(w)
		}
		commE := cutOf(id) * pl.EnergyPerGB
		memo[id] = stateExp{to: to, chunk: chunk, commE: commE, done: true}
		runStates = run.Count()
		return &memo[id], nil
	}

	// Layer k holds E(D, k): minimal energy to run downset D on exactly the
	// first k processors of the chain.
	prev := newLayer(runStates)
	first, err := expand(empty)
	if err != nil {
		return nil, tr, fmt.Errorf("%w: %v (%w)", ErrNoSolution, err, ErrBudget)
	}
	transitions += len(first.to)
	grow(prev, runStates)
	for j, to := range first.to {
		if e := first.chunk[j]; e < prev.energy[to] {
			prev.energy[to] = e
			prev.parent[to] = int32(empty)
		}
	}

	bestEnergy := math.Inf(1)
	bestK := -1
	layers := []*layer{nil, prev} // layers[k] for k >= 1
	if prev.energy[full] < bestEnergy {
		bestEnergy = prev.energy[full]
		bestK = 1
	}

	for k := 2; k <= r; k++ {
		tr.layer = k
		cur := newLayer(runStates)
		progress := false
		for id := 0; id < len(prev.energy); id++ {
			base := prev.energy[id]
			if math.IsInf(base, 1) || id == full {
				continue
			}
			// The cut check comes first, as in the Theorem 1 statement: an
			// over-capacity state is never expanded, so it charges neither
			// the state nor the transition budget.
			if cutOf(id) > linkCap {
				tr.cutRejected = true
				continue // the link between cores k-1 and k would overflow
			}
			se, err := expand(id)
			if err != nil {
				return nil, tr, fmt.Errorf("%w: %v (%w)", ErrNoSolution, err, ErrBudget)
			}
			transitions += len(se.to)
			if transitions > maxTransitions {
				return nil, tr, fmt.Errorf("%w: transition budget exceeded (%w)", ErrNoSolution, ErrBudget)
			}
			grow(cur, runStates)
			grow(prev, runStates)
			for j, to := range se.to {
				cand := base + se.commE + se.chunk[j]
				if cand < cur.energy[to] {
					cur.energy[to] = cand
					cur.parent[to] = int32(id)
					progress = true
				}
			}
		}
		layers = append(layers, cur)
		grow(cur, runStates)
		if cur.energy[full] < bestEnergy {
			bestEnergy = cur.energy[full]
			bestK = k
		}
		if !progress {
			break
		}
		prev = cur
	}

	if bestK < 0 {
		return nil, tr, ErrNoSolution
	}

	// Reconstruct the chunk of each processor, in chain order (run indices
	// translate back to downset ids for the membership diff).
	chunks := make([][]int, bestK)
	id := full
	for k := bestK; k >= 1; k-- {
		p := int(layers[k].parent[id])
		chunks[k-1] = ds.Diff(run.ID(p), run.ID(id))
		id = p
	}
	return chunks, tr, nil
}

// finishSnake places consecutive chunks along the snake embedding, pins the
// communication routes to the snake links ("no other communication link is
// used", Section 5.4) and evaluates the result.
func finishSnake(name string, inst Instance, chunks [][]int) (*Solution, error) {
	g, pl, T := inst.Graph, inst.Platform, inst.Period
	snake := platform.NewSnake(pl)
	m := mapping.New(g.N(), pl)
	pos := make([]int, g.N()) // stage -> snake position
	for k, chunk := range chunks {
		c := snake.Core(k)
		var work float64
		for _, s := range chunk {
			m.Alloc[s] = c
			pos[s] = k
			work += g.Stages[s].Weight
		}
		_, idx, ok := pl.MinFeasibleSpeed(work, T)
		if !ok {
			return nil, fmt.Errorf("%w: %s chunk %d infeasible", ErrNoSolution, name, k)
		}
		m.SetSpeed(pl, c, idx)
	}
	m.Paths = make(map[int][]platform.Link, len(g.Edges))
	for e, edge := range g.Edges {
		a, b := pos[edge.Src], pos[edge.Dst]
		if a != b {
			m.Paths[e] = snake.Path(a, b)
		}
	}
	return finish(name, inst, m)
}
