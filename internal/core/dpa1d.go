package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
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

// MaxDPA1DStates is DPA1D's default state budget and the largest one a
// campaign cell may ask for (engine.CellSpec.Validate).
const MaxDPA1DStates = 150_000

// NewDPA1D returns the default configuration. The transition budget counts
// DP relaxations (per processor layer), so it scales with the core count;
// the state budget is what stops elevation blow-ups early.
func NewDPA1D() *DPA1D {
	return &DPA1D{MaxStates: MaxDPA1DStates, MaxTransitions: 24_000_000}
}

// Name implements Heuristic.
func (h *DPA1D) Name() string { return "DPA1D" }

// ErrBudget wraps ErrNoSolution for failures caused by state explosion
// rather than by infeasibility.
var ErrBudget = errors.New("state budget exhausted")

// verdictKey identifies one DPA1D run: the period, which scales the chunk
// cap and the link capacity, and the verdictClass the run shares with runs
// at other periods. The family's claim gate pins it exactly; a budget
// verdict replays at its own period and at every looser one (see verdict).
type verdictKey struct {
	T float64
	verdictClass
}

// verdictClass is everything a run's exploration sequence — and therefore
// its budget failure point — depends on besides the period and the member
// (whose volumes decide the members a verdict replays on, see runMemo):
// both budgets, the bandwidth and the speed ladder (chunk-energy finiteness
// gates which states later layers expand). A recorded verdict replays only for an exactly equal
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
// The margin follows the max-cut certificate's derivation (see runMemo)
// with the stages in the role of the edges: a chunk sum adds at most n
// non-negative weights, so two path sums of one chunk are within
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

// speedLadderSig fingerprints the platform's speed ladder for verdictClass.
func speedLadderSig(pl *platform.Platform) string {
	var b []byte
	for _, s := range pl.Speeds {
		b = appendHexFloat(b, s)
		b = append(b, ',')
	}
	return string(b)
}

// appendHexFloat appends f's exact hexadecimal form, a collision-free float
// encoding.
func appendHexFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'x', -1, 64)
}

// runMemo records, for one scale family, the budget-failure verdicts of past
// DPA1D runs. A budget-failed run evicts its half-enumerated downset space
// (see Solve), so without this memo every identical later run — the same
// CCR cell in a repeated campaign sweep, or on the next larger grid —
// re-burned the entire enumeration just to fail at the same point; the run
// is deterministic given the key and the member, so replaying the recorded
// error is bit-identical and free. Successful runs record nothing: they run
// their DP again.
//
// A verdict always replays on the member that recorded it. It replays on a
// sibling too when the sibling's run would be the recorded one. A run reads
// edge volumes in two places only: the cut check, which skips a state whose
// cut exceeds the link capacity, and the communication energy, whose
// magnitude changes finite DP values but never which states are expanded,
// the layer's progress or the budget counts. A run whose cut check rejected
// no state therefore explores exactly what a member would explore if its
// own cut check rejected none of the same states. A sibling replays such a
// verdict at its own period T′ — the verdict's period or a looser one (see
// verdict) — when either certificate below shows that its cut check at T′
// cannot fire on those states:
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
// The memo also gates identical runs: a member about to run a key that a
// sibling is already running waits for the sibling's verdict instead of
// repeating its enumeration alongside it.
type runMemo struct {
	mu       sync.Mutex
	verdicts map[verdictClass][]memoVerdict // append-only
	running  map[verdictKey]struct{}
	released sync.Cond // broadcast whenever a running key is released; L is &mu
}

// memoVerdict is a recorded verdict with what decides the members it
// replays on: the recorder's graph, an immutable family member whose edge
// volumes scale the run's largest cut (maxCut) to any other member's, and
// whether the run's cut check rejected a state, which confines the verdict
// to its recorder.
type memoVerdict struct {
	verdict
	rec         *spg.Graph
	maxCut      float64
	cutRejected bool
}

type runMemoAuxKey struct{}

func runMemoFor(an *spg.Analysis) *runMemo {
	return an.Aux(runMemoAuxKey{}, func() any {
		m := &runMemo{
			verdicts: make(map[verdictClass][]memoVerdict),
			running:  make(map[verdictKey]struct{}),
		}
		m.released.L = &m.mu
		return m
	}).(*runMemo)
}

// lookup returns the recorded error that answers a run of key on a chain
// of cores processors by member g at link capacity linkCap —
// LinkCapacity(key.T), the querying period's — and nil if none does. A
// verdict g recorded answers whenever it replays at key.T (see verdict).
// Only if none does, a sibling's verdict answers when its run rejected no
// state, it replays at key.T and either certificate (see runMemo) admits g.
// Of several, the one recorded at the largest period answers, whatever
// order they were recorded in: g's verdicts at one period record one run,
// and two sibling verdicts published at one period come from runs that
// rejected no state, so both are the run with no cut check and carry the
// same error. Either way the replayed error is the one g's own run at that
// period returns. cutBound(g) and ρ are computed only for a member that
// has a sibling's verdict to replay.
func (m *runMemo) lookup(key verdictKey, cores int, g *spg.Graph, linkCap float64) error {
	m.mu.Lock()
	list := m.verdicts[key.verdictClass]
	m.mu.Unlock()
	var best *memoVerdict
	for i := range list {
		if v := &list[i]; v.rec == g && v.replaysAt(key.T, cores) && (best == nil || v.T > best.T) {
			best = v
		}
	}
	if best != nil {
		return best.err
	}
	bound, bounded := 0.0, false
	for i := range list {
		v := &list[i]
		if v.rec == g || v.cutRejected || !v.replaysAt(key.T, cores) || (best != nil && v.T <= best.T) {
			continue
		}
		if !bounded {
			bound, bounded = cutBound(g), true
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
func (m *runMemo) record(key verdictClass, v memoVerdict) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.verdicts[key] = append(m.verdicts[key], v)
}

// MemoryFootprint implements spg.Footprinter with the flat constants the spg
// estimates use, so verdicts count toward Analysis.MemoryFootprint and so
// toward the campaign cache's byte account. The recorders' graphs belong to
// their member analyses and are not counted here.
func (m *runMemo) MemoryFootprint() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	const classBytes = int64(unsafe.Sizeof(verdictClass{})) + auxMapEntryBytes + auxSliceHeaderBytes
	var b int64
	for k, list := range m.verdicts {
		b += classBytes + int64(len(k.ladder)) + int64(len(list))*int64(unsafe.Sizeof(memoVerdict{}))
	}
	return b
}

// Flat approximations matching the spg footprint constants.
const (
	auxSliceHeaderBytes = 24
	auxMapEntryBytes    = 48
)

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
// so the caller looks at the memo again. A true return obliges the caller
// to release the key.
func (m *runMemo) claim(key verdictKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, busy := m.running[key]; !busy {
		m.running[key] = struct{}{}
		return true
	}
	for {
		m.released.Wait()
		if _, busy := m.running[key]; !busy {
			return false
		}
	}
}

func (m *runMemo) release(key verdictKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.running, key)
	m.released.Broadcast()
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
	g := an.Graph()
	memo := runMemoFor(an)
	for {
		// A budget failure recorded for this configuration, at this period
		// or a tighter one, replays immediately: the run it summarizes would
		// burn the whole enumeration again only to fail identically, and a
		// run at a looser period would fail by the same layer (see verdict).
		if err := memo.lookup(key, cores, g, pl.LinkCapacity(T)); err != nil {
			return nil, err
		}
		// A sibling running the same key records its verdict before it
		// releases the key; wait for it, then look again.
		if memo.claim(key) {
			break
		}
	}
	defer memo.release(key)
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
			memo.record(key.verdictClass, memoVerdict{
				verdict: newVerdict(T, g.N(), tr.layer, err),
				rec:     g, maxCut: tr.maxCut, cutRejected: tr.cutRejected,
			})
		}
		return nil, err
	}
	return finishSnake(h.Name(), inst, chunks)
}

// runTrace is what a DPA1D run reports besides its chunks, for its budget
// verdict: the processor layer it stopped in, whether its cut check
// rejected any state, and the largest cut it computed (the max-cut
// certificate's maxCut, see runMemo).
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
