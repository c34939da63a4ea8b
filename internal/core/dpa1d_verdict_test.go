package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"

	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// outcome1D summarizes one DPA1D solve for bit-exact comparison: the error
// text, or the energy bits and the allocation of the mapping.
type outcome1D struct {
	err    string
	budget bool
	energy uint64
	alloc  string
}

func (o outcome1D) String() string {
	if o.err != "" {
		return o.err
	}
	return fmt.Sprintf("energy %x alloc %s", o.energy, o.alloc)
}

func solveOutcome(h *DPA1D, inst Instance) outcome1D {
	sol, err := h.Solve(inst)
	if err != nil {
		return outcome1D{err: err.Error(), budget: errors.Is(err, ErrBudget)}
	}
	return outcome1D{energy: math.Float64bits(sol.Energy()), alloc: fmt.Sprint(sol.Mapping.Alloc)}
}

// freshOutcome solves on a private analysis of an independently rescaled
// graph: no verdict, lattice or solution is shared with anything.
func freshOutcome(t *testing.T, h *DPA1D, a streamit.App, ccr float64, n int, T float64) outcome1D {
	t.Helper()
	g, err := a.GraphWithCCR(ccr)
	if err != nil {
		t.Fatal(err)
	}
	return solveOutcome(h, Instance{Graph: g, Platform: platform.XScale(n, n), Period: T, Analysis: spg.NewAnalysis(g)})
}

var (
	verdictGrids   = []int{2, 4, 6}
	verdictPeriods = []float64{1, 0.1, 0.01, 0.001}
	// Two budget pairs keep the suite fast while reaching both failure
	// kinds, failures at layers past a 2x2 chain, and a cut-rejected run.
	verdictBudgets = []DPA1D{
		{MaxStates: 200, MaxTransitions: 5_000},
		{MaxStates: 3_000, MaxTransitions: 300_000},
	}
)

func streamItCCRs(a streamit.App) []float64 { return []float64{a.CCR, 10, 1, 0.1} }

func reversed[T any](s []T) []T {
	out := make([]T, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// TestDPA1DSharedVerdictsMatchFresh: with verdicts shared across grids
// (layer-keyed) and across CCR siblings (family verdicts), every DPA1D
// outcome on the 12 StreamIt applications x 4 CCRs x {2x2, 4x4, 6x6} x
// T in {1, ..., 1e-3} is bit-identical to a fresh per-cell solve — whichever
// grid and CCR order warms the shared stores.
func TestDPA1DSharedVerdictsMatchFresh(t *testing.T) {
	budgets := verdictBudgets
	if testing.Short() {
		budgets = budgets[:1]
	}
	var replayable, refusedOnSmall, family, fromFamily int
	for _, a := range streamit.Suite() {
		base, err := a.BaseGraph()
		if err != nil {
			t.Fatal(err)
		}
		ccrs := streamItCCRs(a)
		for bi := range budgets {
			h := &budgets[bi]
			type cell struct {
				ccr float64
				n   int
				T   float64
			}
			want := make(map[cell]outcome1D)
			for _, ccr := range ccrs {
				for _, n := range verdictGrids {
					for _, T := range verdictPeriods {
						want[cell{ccr, n, T}] = freshOutcome(t, h, a, ccr, n, T)
					}
				}
			}
			for _, grids := range [][]int{verdictGrids, reversed(verdictGrids)} {
				for _, order := range [][]float64{ccrs, reversed(ccrs)} {
					fam := spg.NewAnalysis(base)
					for _, n := range grids {
						for _, ccr := range order {
							an := fam.ScaleToCCR(ccr)
							for _, T := range verdictPeriods {
								pl := platform.XScale(n, n)
								inst := Instance{Graph: an.Graph(), Platform: pl, Period: T, Analysis: an}
								got, w := solveOutcome(h, inst), want[cell{ccr, n, T}]
								if got != w {
									t.Fatalf("%s budget %d grids %v CCRs %v: ccr %g %dx%d T %g: shared %v, fresh %v",
										a.Name, bi, grids, order, ccr, n, n, T, got, w)
								}
								// A budget failure no verdict of the member's own
								// answers was answered by a sibling's verdict.
								if got.budget && !ownReplays(an, solveKey(h, pl, T), pl.NumCores()) {
									fromFamily++
								}
							}
						}
					}
					// Tally what the family memo held, so the suite proves it
					// exercised each sharing path.
					for _, v := range recordedVerdicts(fam) {
						replayable++
						if v.layer > 4 {
							refusedOnSmall++
						}
					}
					family += len(publishedVerdicts(fam))
				}
			}
		}
	}
	if replayable == 0 || refusedOnSmall == 0 || family == 0 || fromFamily == 0 {
		t.Fatalf("suite did not exercise sharing: %d member verdicts, %d past layer 4, %d family verdicts, %d family replays",
			replayable, refusedOnSmall, family, fromFamily)
	}
}

// verdictChain is a 40-stage chain whose transition budget runs out several
// layers into a 4x4 chain, and which a 2x2 chain cannot cover at all.
func verdictChain(t *testing.T) *spg.Graph {
	t.Helper()
	w := make([]float64, 40)
	v := make([]float64, 39)
	for i := range w {
		w[i] = 0.25
	}
	for i := range v {
		v[i] = 0.01
	}
	g, err := spg.Chain(w, v)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDPA1DLayerVerdictNotReplayedOnShorterChain: a verdict recorded in
// layer k replays on chains of at least k cores and never on shorter ones,
// whose run stops before the failing layer.
func TestDPA1DLayerVerdictNotReplayedOnShorterChain(t *testing.T) {
	g := verdictChain(t)
	h := &DPA1D{MaxStates: 1_000, MaxTransitions: 300}
	an := spg.NewAnalysis(g)
	const T = 1.0
	big := Instance{Graph: g, Platform: platform.XScale(4, 4), Period: T, Analysis: an}
	if got := solveOutcome(h, big); !got.budget {
		t.Fatalf("4x4 run: %v, want a budget failure", got)
	}
	key := solveKey(h, big.Platform, T)
	v, ok := memberVerdict(an, key)
	if !ok || v.layer <= 4 || v.layer > 16 {
		t.Fatalf("recorded verdict %+v (ok %v), want a layer in (4, 16]", v, ok)
	}
	if ownReplays(an, key, v.layer-1) {
		t.Errorf("verdict of layer %d replays on %d cores", v.layer, v.layer-1)
	}
	if !ownReplays(an, key, v.layer) {
		t.Errorf("verdict of layer %d does not replay on %d cores", v.layer, v.layer)
	}

	for _, n := range []int{2, 6} {
		pl := platform.XScale(n, n)
		got := solveOutcome(h, Instance{Graph: g, Platform: pl, Period: T, Analysis: an})
		want := solveOutcome(h, Instance{Graph: g, Platform: pl, Period: T, Analysis: spg.NewAnalysis(g)})
		if got != want {
			t.Errorf("%dx%d after the 4x4 verdict: %v, fresh %v", n, n, got, want)
		}
		if n == 2 && got.budget {
			t.Errorf("2x2 took the layer-%d verdict: %v", v.layer, got)
		}
	}
}

// verdictForkJoin is a 12-branch fork-join whose in-volumes are as given:
// with stage weights 0.3 and T = 1 a chunk holds at most three stages, so
// the first layer interns 81 downsets and the second explodes past a
// 100-state budget unless the cut check prunes it.
func verdictForkJoin(t *testing.T, inVol func(i int) float64) *spg.Graph {
	t.Helper()
	middle := make([]float64, 12)
	in := make([]float64, 12)
	out := make([]float64, 12)
	for i := range middle {
		middle[i] = 0.3
		in[i] = inVol(i)
		out[i] = 0.1
	}
	g, err := spg.ForkJoin(0.3, 0.3, middle, in, out)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDPA1DHeavyMemberSkipsFamilyVerdict: a member whose total volume
// exceeds BW*T and whose max-cut certificate fails does not take a family
// verdict — its cut check changes the run. Here the light sibling explodes
// while the heavy one, a thousand times heavier, prunes every second-layer
// state and simply finds no mapping.
func TestDPA1DHeavyMemberSkipsFamilyVerdict(t *testing.T) {
	g := verdictForkJoin(t, func(int) float64 { return 10 })
	h := &DPA1D{MaxStates: 100, MaxTransitions: 1 << 30}
	pl := platform.XScale(4, 4)
	const T = 1.0
	fam := spg.NewAnalysis(g)
	light := fam.ScaleToCCR(10)
	if cutBound(light.Graph()) > pl.LinkCapacity(T) || cutBound(g) <= pl.LinkCapacity(T) {
		t.Fatalf("premise: light bound %g, heavy bound %g, link %g",
			cutBound(light.Graph()), cutBound(g), pl.LinkCapacity(T))
	}
	if got := solveOutcome(h, Instance{Graph: light.Graph(), Platform: pl, Period: T, Analysis: light}); !got.budget {
		t.Fatalf("light member: %v, want a budget failure", got)
	}
	if len(publishedVerdicts(fam)) != 1 {
		t.Fatal("the light member's volume-free verdict was not published")
	}
	got := solveOutcome(h, Instance{Graph: g, Platform: pl, Period: T, Analysis: fam})
	want := solveOutcome(h, Instance{Graph: g, Platform: pl, Period: T, Analysis: spg.NewAnalysis(g)})
	if got != want {
		t.Fatalf("heavy member: %v, fresh %v", got, want)
	}
	if got.budget {
		t.Fatalf("heavy member replayed the family verdict: %v", got)
	}
}

// solveKey is the verdict key of a Solve by h at period T on pl.
func solveKey(h *DPA1D, pl *platform.Platform, T float64) verdictKey {
	return verdictKey{T: T, verdictClass: verdictClass{maxStates: h.MaxStates, maxTransitions: h.MaxTransitions,
		bw: pl.BW, ladder: speedLadderSig(pl)}}
}

// classVerdicts lists the verdicts an's family memo holds for key's class,
// at every period, in recording order.
func classVerdicts(an *spg.Analysis, key verdictKey) []memoVerdict {
	m := runMemoFor(an)
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]memoVerdict(nil), m.verdicts[key.verdictClass]...)
}

// ownReplays reports whether a verdict member an recorded itself answers a
// run of key on a chain of cores processors — what the family memo's lookup
// consults before any sibling's verdict.
func ownReplays(an *spg.Analysis, key verdictKey, cores int) bool {
	for _, v := range classVerdicts(an, key) {
		if v.rec == an.Graph() && v.replaysAt(key.T, cores) {
			return true
		}
	}
	return false
}

// memberVerdict returns the verdict member an recorded itself for key at
// exactly key.T.
func memberVerdict(an *spg.Analysis, key verdictKey) (memoVerdict, bool) {
	for _, v := range classVerdicts(an, key) {
		if v.rec == an.Graph() && v.T == key.T {
			return v, true
		}
	}
	return memoVerdict{}, false
}

// publishedVerdict returns the verdict fam's family memo holds for key at
// exactly key.T from a run that rejected no state, the kind a sibling may
// replay.
func publishedVerdict(fam *spg.Analysis, key verdictKey) (memoVerdict, bool) {
	for _, v := range classVerdicts(fam, key) {
		if !v.cutRejected && v.T == key.T {
			return v, true
		}
	}
	return memoVerdict{}, false
}

// recordedVerdicts lists every verdict fam's family memo holds, of any
// class, period and member.
func recordedVerdicts(fam *spg.Analysis) []memoVerdict {
	m := runMemoFor(fam)
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []memoVerdict
	for _, list := range m.verdicts {
		out = append(out, list...)
	}
	return out
}

// publishedVerdicts lists the verdicts of recordedVerdicts(fam) that a
// sibling may replay: those of runs whose cut check rejected no state.
func publishedVerdicts(fam *spg.Analysis) []memoVerdict {
	var out []memoVerdict
	for _, v := range recordedVerdicts(fam) {
		if !v.cutRejected {
			out = append(out, v)
		}
	}
	return out
}

// solveCounted solves and reports whether the Solve executed a DPA1D run
// (false: it replayed a verdict or a memoized solution).
func solveCounted(h *DPA1D, inst Instance) (outcome1D, bool) {
	before := dpa1dWork.runs.Load()
	o := solveOutcome(h, inst)
	return o, dpa1dWork.runs.Load() != before
}

// freshGraphOutcome solves a private clone of g on a private analysis.
func freshGraphOutcome(h *DPA1D, g *spg.Graph, pl *platform.Platform, T float64) outcome1D {
	c := g.Clone()
	return solveOutcome(h, Instance{Graph: c, Platform: pl, Period: T, Analysis: spg.NewAnalysis(c)})
}

// TestDPA1DMaxCutCertificate: a heavy member — total volume past the link
// capacity — replays a light sibling's verdict exactly when
// ρ·maxCut·margin fits the link. The members are scaled around
// LinkCapacity(T)/(ρ·maxCut): one just inside the certificate, one inside
// the rounding margin only, one just past the link capacity. Each matches
// a fresh solve bit for bit, and only the first replays.
func TestDPA1DMaxCutCertificate(t *testing.T) {
	g := verdictForkJoin(t, func(int) float64 { return 0.1 })
	h := &DPA1D{MaxStates: 100, MaxTransitions: 1 << 30}
	pl := platform.XScale(4, 4)
	const T = 1.0
	linkCap := pl.LinkCapacity(T)
	fam := spg.NewAnalysis(g)
	rec := fam.ScaleToCCR(10)
	if cutBound(rec.Graph()) > linkCap {
		t.Fatal("premise: the recorder must be light")
	}
	if got := solveOutcome(h, Instance{Graph: rec.Graph(), Platform: pl, Period: T, Analysis: rec}); !got.budget {
		t.Fatalf("recorder: %v, want a budget failure", got)
	}
	fv, ok := publishedVerdict(fam, solveKey(h, pl, T))
	if !ok || fv.rec != rec.Graph() || !(fv.maxCut > 0) {
		t.Fatalf("published verdict %+v (ok %v), want the recorder's with a positive max cut", fv, ok)
	}
	margin := sumMargin(len(g.Edges))

	// Volumes scale as 1/CCR, so members near the critical CCR straddle the
	// certificate's edge; scan them in steps of a few ulps.
	crit := 10 * fv.maxCut * margin / linkCap
	var inside, inMargin, outside *spg.Analysis
	for k := -200; k <= 200; k++ {
		m := fam.ScaleToCCR(crit * (1 + math.Ldexp(float64(k), -50)))
		x := cutScale(m.Graph(), rec.Graph()) * fv.maxCut
		switch {
		case x*margin <= linkCap:
			if inside == nil {
				inside = m
			}
		case x <= linkCap:
			inMargin = m
		case outside == nil || m.Graph().TotalVolume() < outside.Graph().TotalVolume():
			outside = m
		}
	}
	if inside == nil || inMargin == nil || outside == nil {
		t.Fatalf("premise: scan found inside %v, in-margin %v, outside %v", inside != nil, inMargin != nil, outside != nil)
	}
	for _, tc := range []struct {
		name   string
		an     *spg.Analysis
		replay bool
	}{{"inside", inside, true}, {"in-margin", inMargin, false}, {"outside", outside, false}} {
		mg := tc.an.Graph()
		if cutBound(mg) <= linkCap {
			t.Fatalf("%s: premise: the member must be heavy (bound %g, link %g)", tc.name, cutBound(mg), linkCap)
		}
		got, ran := solveCounted(h, Instance{Graph: mg, Platform: pl, Period: T, Analysis: tc.an})
		if want := freshGraphOutcome(h, mg, pl, T); got != want {
			t.Errorf("%s: %v, fresh %v", tc.name, got, want)
		}
		if ran == tc.replay {
			t.Errorf("%s: ran %v, want a replay %v", tc.name, ran, tc.replay)
		}
	}
}

// TestDPA1DZeroRecorderVolumeBlocksReplay: a recorder edge of volume 0 says
// nothing about a member whose volume on it is positive (ρ = +Inf), so the
// member runs even though the other edges alone would certify it. The
// recorder is scaled so far down that one tiny edge underflows to zero.
func TestDPA1DZeroRecorderVolumeBlocksReplay(t *testing.T) {
	// verdictForkJoin's shape, with out-volumes heavy enough to make the
	// member heavy while its early cuts, mostly in-volumes, fit the link.
	middle, in, out := make([]float64, 12), make([]float64, 12), make([]float64, 12)
	for i := range middle {
		middle[i], in[i], out[i] = 0.3, 1.5, 0.8
	}
	in[0] = 1e-300
	g, err := spg.ForkJoin(0.3, 0.3, middle, in, out)
	if err != nil {
		t.Fatal(err)
	}
	h := &DPA1D{MaxStates: 100, MaxTransitions: 1 << 30}
	pl := platform.XScale(4, 4)
	const T = 1.0
	linkCap := pl.LinkCapacity(T)
	fam := spg.NewAnalysis(g)
	rec := fam.ScaleToCCR(1e30)
	zero := -1
	for i, e := range g.Edges {
		if e.Volume == 1e-300 {
			zero = i
		}
	}
	if zero < 0 || rec.Graph().Edges[zero].Volume != 0 || cutBound(g) <= linkCap {
		t.Fatalf("premise: the tiny edge must underflow in the recorder, and the member must be heavy (bound %g, link %g)", cutBound(g), linkCap)
	}
	if got := solveOutcome(h, Instance{Graph: rec.Graph(), Platform: pl, Period: T, Analysis: rec}); !got.budget {
		t.Fatalf("recorder: %v, want a budget failure", got)
	}
	fv, ok := publishedVerdict(fam, solveKey(h, pl, T))
	if !ok {
		t.Fatal("the recorder's verdict was not published")
	}
	// ρ over every other edge certifies the member.
	rho := 0.0
	for i, e := range g.Edges {
		if i != zero && e.Volume > 0 {
			rho = math.Max(rho, e.Volume/rec.Graph().Edges[i].Volume)
		}
	}
	if rho*fv.maxCut*sumMargin(len(g.Edges)) > linkCap {
		t.Fatalf("premise: the other edges must certify the member (ρ %g, max cut %g, link %g)", rho, fv.maxCut, linkCap)
	}
	if !math.IsInf(cutScale(g, rec.Graph()), 1) {
		t.Fatalf("cutScale %g, want +Inf", cutScale(g, rec.Graph()))
	}
	got, ran := solveCounted(h, Instance{Graph: g, Platform: pl, Period: T, Analysis: fam})
	if want := freshGraphOutcome(h, g, pl, T); got != want {
		t.Fatalf("member: %v, fresh %v", got, want)
	}
	if !ran {
		t.Fatal("member replayed a verdict its recorder's zero volume cannot certify")
	}
}

// TestDPA1DCutRejectingRunNotPublished: a run whose cut check rejected a
// state records a verdict only its own member replays; an eligible sibling
// then runs (and matches a fresh solve) instead of replaying it.
func TestDPA1DCutRejectingRunNotPublished(t *testing.T) {
	g := verdictForkJoin(t, func(i int) float64 {
		if i == 0 {
			return 100
		}
		return 0.1
	})
	h := &DPA1D{MaxStates: 100, MaxTransitions: 1 << 30}
	pl := platform.XScale(4, 4)
	const T = 1.0
	fam := spg.NewAnalysis(g)
	inst := Instance{Graph: g, Platform: pl, Period: T, Analysis: fam}

	// The heavy member's run, traced directly: it rejects states on their
	// cut before the budget runs out.
	ds, err := spg.NewAnalysis(g).DownsetSpace(h.MaxStates)
	if err != nil {
		t.Fatal(err)
	}
	run := ds.NewRun()
	_, tr, err := solve1D(inst, ds, run, h.MaxTransitions)
	run.Close()
	if !errors.Is(err, ErrBudget) || !tr.cutRejected {
		t.Fatalf("premise: heavy run err %v, cut rejected %v", err, tr.cutRejected)
	}

	if got := solveOutcome(h, inst); !got.budget {
		t.Fatalf("heavy member: %v, want a budget failure", got)
	}
	if n := len(publishedVerdicts(fam)); n != 0 {
		t.Fatalf("cut-rejecting run published %d family verdicts", n)
	}
	if n := len(recordedVerdicts(fam)); n != 1 {
		t.Fatalf("cut-rejecting run recorded %d verdicts, want 1", n)
	}
	light := fam.ScaleToCCR(10)
	if cutBound(light.Graph()) > pl.LinkCapacity(T) {
		t.Fatal("premise: the light member must be eligible for family verdicts")
	}
	got := solveOutcome(h, Instance{Graph: light.Graph(), Platform: pl, Period: T, Analysis: light})
	lg := light.Graph().Clone()
	want := solveOutcome(h, Instance{Graph: lg, Platform: pl, Period: T, Analysis: spg.NewAnalysis(lg)})
	if got != want {
		t.Fatalf("light member: %v, fresh %v", got, want)
	}
}

// TestDPA1DOwnVerdictAnswersFirst: a cut-rejecting verdict replays on the
// member that recorded it and never on a sibling, not even one its cutBound
// certifies; and where the member's own verdict and a sibling's both
// replay, the member's own answers, with the error its own run returned,
// though the sibling's was recorded at a larger period.
func TestDPA1DOwnVerdictAnswersFirst(t *testing.T) {
	g := verdictForkJoin(t, func(i int) float64 {
		if i == 0 {
			return 100
		}
		return 0.1
	})
	h := &DPA1D{MaxStates: 100, MaxTransitions: 1 << 30}
	pl := platform.XScale(4, 4)
	cores := pl.NumCores()
	fam := spg.NewAnalysis(g)
	light := fam.ScaleToCCR(10)
	memo := runMemoFor(fam)
	solve := func(an *spg.Analysis, T float64) (outcome1D, bool) {
		return solveCounted(h, Instance{Graph: an.Graph(), Platform: pl, Period: T, Analysis: an})
	}

	// The heavy member records a cut-rejecting verdict at T = 1, and replays it.
	if got, _ := solve(fam, 1); !got.budget {
		t.Fatalf("premise: heavy member %v, want a budget failure", got)
	}
	own, ok := memberVerdict(fam, solveKey(h, pl, 1))
	if !ok || !own.cutRejected {
		t.Fatalf("premise: heavy verdict %+v (ok %v), want a cut-rejecting one", own, ok)
	}
	if got, ran := solve(fam, 1); ran || got.err != own.err.Error() {
		t.Errorf("heavy member again: %v (ran %v), want its own verdict %q replayed", got, ran, own.err)
	}

	// The light sibling, whose cutBound fits the link, never takes it.
	for _, T := range []float64{1, 2} {
		if cutBound(light.Graph()) > pl.LinkCapacity(T) {
			t.Fatalf("premise: light bound %g exceeds the link %g at T %g", cutBound(light.Graph()), pl.LinkCapacity(T), T)
		}
		if err := memo.lookup(solveKey(h, pl, T), cores, light.Graph(), pl.LinkCapacity(T)); err != nil {
			t.Errorf("light sibling at T %g took the cut-rejecting verdict: %v", T, err)
		}
	}
	got, ran := solve(light, 2)
	if want := freshGraphOutcome(h, light.Graph(), pl, 2); !ran || got != want || !got.budget {
		t.Fatalf("light sibling at T 2: %v (ran %v), fresh %v; want a run ending in a budget failure", got, ran, want)
	}
	sib, ok := publishedVerdict(fam, solveKey(h, pl, 2))
	if !ok || sib.rec != light.Graph() {
		t.Fatalf("premise: published verdict %+v (ok %v), want the light sibling's", sib, ok)
	}

	// At T = 10 both replay on the heavy member — its own lifted from T = 1,
	// the sibling's lifted from T = 2 and certified by the heavy member's
	// cutBound — and its own answers.
	const loose = 10.0
	if cutBound(g) > pl.LinkCapacity(loose) || !own.replaysAt(loose, cores) || !sib.replaysAt(loose, cores) {
		t.Fatalf("premise: heavy bound %g, link %g; own replays %v, sibling's replays %v",
			cutBound(g), pl.LinkCapacity(loose), own.replaysAt(loose, cores), sib.replaysAt(loose, cores))
	}
	if err := memo.lookup(solveKey(h, pl, loose), cores, g, pl.LinkCapacity(loose)); err != own.err {
		t.Errorf("heavy member at T %g: lookup answered %v, want its own verdict's %v", loose, err, own.err)
	}
	got, ran = solve(fam, loose)
	if ran || got.err != own.err.Error() {
		t.Errorf("heavy member at T %g: %v (ran %v), want its own verdict %q", loose, got, ran, own.err)
	}
	if want := freshGraphOutcome(h, g, pl, loose); !sameResult(got, want) {
		t.Errorf("heavy member at T %g: %v, fresh %v", loose, got, want)
	}
}

// TestDPA1DConcurrentFamilyMatchesSerialFresh: the four CCR members of a
// family solve DPA1D concurrently, two goroutines each, at one period on
// one shared lattice; every result is bit-identical to a serial fresh solve.
// The suite includes keys on which heavy and light members all run out of
// budget, so they race to record, wait for and replay one family verdict.
// Run under -race, it checks the run cursors, the family memo and the claim
// gate.
func TestDPA1DConcurrentFamilyMatchesSerialFresh(t *testing.T) {
	h := &verdictBudgets[1]
	apps := streamit.Suite()
	periods := verdictPeriods
	if testing.Short() {
		apps = []streamit.App{apps[0], apps[2], apps[8]}
		periods = periods[:2]
	}
	mixed := 0 // keys failing on a heavy and a light member alike
	for _, a := range apps {
		base, err := a.BaseGraph()
		if err != nil {
			t.Fatal(err)
		}
		ccrs := streamItCCRs(a)
		fam := spg.NewAnalysis(base)
		for _, T := range periods {
			want := make([]outcome1D, len(ccrs))
			var heavyFails, lightFails bool
			for i, ccr := range ccrs {
				want[i] = freshOutcome(t, h, a, ccr, 4, T)
				heavy := cutBound(fam.ScaleToCCR(ccr).Graph()) > platform.XScale(4, 4).LinkCapacity(T)
				heavyFails = heavyFails || (heavy && want[i].budget)
				lightFails = lightFails || (!heavy && want[i].budget)
			}
			if heavyFails && lightFails {
				mixed++
			}
			got := make([]outcome1D, 2*len(ccrs))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := range got {
				an := fam.ScaleToCCR(ccrs[w/2])
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					got[w] = solveOutcome(h, Instance{Graph: an.Graph(), Platform: platform.XScale(4, 4), Period: T, Analysis: an})
				}()
			}
			close(start)
			wg.Wait()
			for w, o := range got {
				if o != want[w/2] {
					t.Fatalf("%s T %g ccr %g goroutine %d: %v, fresh %v", a.Name, T, ccrs[w/2], w%2, o, want[w/2])
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no key made heavy and light members race on one budget verdict")
	}
}

// TestDPA1DConcurrentLiftMatchesFresh: the four CCR members of a family
// solve DPA1D at a period and at ten times it, all at once on one shared
// lattice, so lifted lookups read the verdict lists while siblings append
// to them. Every result agrees with a serial fresh solve (sameResult: a
// lifted replay may carry the tighter run's error text). Run under -race,
// it checks the unlocked reads of the family memo.
func TestDPA1DConcurrentLiftMatchesFresh(t *testing.T) {
	h := &verdictBudgets[1]
	apps := streamit.Suite()
	if testing.Short() {
		apps = []streamit.App{apps[0], apps[2], apps[8]}
	}
	pl := platform.XScale(4, 4)
	liftable := 0 // batches that recorded a verdict at T a 10T solve could lift
	for _, a := range apps {
		base, err := a.BaseGraph()
		if err != nil {
			t.Fatal(err)
		}
		ccrs := streamItCCRs(a)
		for _, T := range []float64{0.1, 0.01} {
			periods := []float64{T, 10 * T}
			type cell struct {
				ccr, T float64
			}
			want := make(map[cell]outcome1D)
			for _, ccr := range ccrs {
				for _, p := range periods {
					want[cell{ccr, p}] = freshOutcome(t, h, a, ccr, 4, p)
				}
			}
			fam := spg.NewAnalysis(base)
			cells := make([]cell, 0, 2*len(want))
			for _, ccr := range ccrs {
				for _, p := range periods {
					cells = append(cells, cell{ccr, p}, cell{ccr, p})
				}
			}
			got := make([]outcome1D, len(cells))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w, c := range cells {
				an := fam.ScaleToCCR(c.ccr)
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					got[w] = solveOutcome(h, Instance{Graph: an.Graph(), Platform: pl, Period: c.T, Analysis: an})
				}()
			}
			close(start)
			wg.Wait()
			for w, c := range cells {
				if !sameResult(got[w], want[c]) {
					t.Fatalf("%s ccr %g T %g goroutine %d: %v, fresh %v", a.Name, c.ccr, c.T, w, got[w], want[c])
				}
			}
			if _, ok := publishedVerdict(fam, solveKey(h, pl, T)); ok {
				liftable++
			}
		}
	}
	if liftable == 0 {
		t.Fatal("no batch published a verdict at its tighter period")
	}
}

// TestDPA1DFamilyVerdictsFootprint: the family memo reports its verdicts,
// and the analysis footprint — the campaign cache's byte account — counts
// them.
func TestDPA1DFamilyVerdictsFootprint(t *testing.T) {
	fam := spg.NewAnalysis(verdictChain(t))
	memo := runMemoFor(fam)
	before := fam.MemoryFootprint()
	pl := platform.XScale(4, 4)
	key := verdictClass{maxStates: 10, maxTransitions: 10, bw: pl.BW, ladder: speedLadderSig(pl)}
	memo.record(key, memoVerdict{verdict: newVerdict(1, fam.Graph().N(), 3, ErrBudget), maxCut: 0.5, rec: fam.Graph()})
	want := int64(unsafe.Sizeof(verdictClass{})+unsafe.Sizeof(memoVerdict{})) + auxMapEntryBytes + auxSliceHeaderBytes + int64(len(key.ladder))
	if got := memo.MemoryFootprint(); got != want {
		t.Fatalf("store footprint %d, want %d", got, want)
	}
	if got := fam.MemoryFootprint() - before; got != want {
		t.Fatalf("analysis footprint grew by %d, want %d", got, want)
	}
}

// TestDPA1DSolveAllocs: a Solve that neither replays nor waits allocates no
// more than before every member went through the claim gate and the
// max-cut certificate (281 and 42 allocations at that commit, go1.24 on
// amd64): the gate and the certificate allocate nothing.
func TestDPA1DSolveAllocs(t *testing.T) {
	pl := platform.XScale(4, 4)
	const T = 1.0
	sc := NewScratch()

	// A light member whose run succeeds, and so runs the DP every Solve.
	h := NewDPA1D()
	chain := spg.NewAnalysis(verdictChain(t))
	inst := Instance{Graph: chain.Graph(), Platform: pl, Period: T, Analysis: chain, Scratch: sc}
	light := testing.AllocsPerRun(50, func() {
		if _, err := h.Solve(inst); err != nil {
			t.Fatal(err)
		}
		sc.Reset()
	})
	if light > 281 {
		t.Errorf("light member Solve: %v allocations, want at most 281", light)
	}

	// A heavy member whose certificate fails against a published verdict
	// (see TestDPA1DHeavyMemberSkipsFamilyVerdict): its run finds no
	// mapping, which records nothing, so every Solve computes ρ and runs.
	hb := &DPA1D{MaxStates: 100, MaxTransitions: 1 << 30}
	g := verdictForkJoin(t, func(int) float64 { return 10 })
	fam := spg.NewAnalysis(g)
	lm := fam.ScaleToCCR(10)
	if got := solveOutcome(hb, Instance{Graph: lm.Graph(), Platform: pl, Period: T, Analysis: lm}); !got.budget {
		t.Fatalf("light sibling: %v, want a budget failure", got)
	}
	hinst := Instance{Graph: g, Platform: pl, Period: T, Analysis: fam, Scratch: sc}
	heavy := testing.AllocsPerRun(50, func() {
		if _, err := hb.Solve(hinst); err == nil {
			t.Fatal("heavy member found a mapping")
		}
		sc.Reset()
	})
	if heavy > 42 {
		t.Errorf("heavy member Solve: %v allocations, want at most 42", heavy)
	}
}

// sameResult reports whether two outcomes agree in what a campaign cell
// records of them: success, the energy bits, and for a failure whether it
// ran out of budget. A replayed verdict carries the error of the run it
// records, which may name the other budget than a fresh run at a looser
// period trips first.
func sameResult(a, b outcome1D) bool {
	return (a.err == "") == (b.err == "") && a.energy == b.energy && a.budget == b.budget
}

// TestDPA1DLiftedMemberVerdictMatchesFresh: a verdict only its member
// replays — from a run whose cut check rejected a state, so no sibling may —
// replays on that member at the lifted period, 2T and 10T on 4x4 and 6x6,
// and each replay agrees with a fresh solve.
func TestDPA1DLiftedMemberVerdictMatchesFresh(t *testing.T) {
	g := verdictForkJoin(t, func(i int) float64 {
		if i == 0 {
			return 100
		}
		return 0.1
	})
	h := &DPA1D{MaxStates: 100, MaxTransitions: 1 << 30}
	const T = 1.0
	an := spg.NewAnalysis(g)
	if got := solveOutcome(h, Instance{Graph: g, Platform: platform.XScale(4, 4), Period: T, Analysis: an}); !got.budget {
		t.Fatalf("premise: %v, want a budget failure", got)
	}
	v, ok := memberVerdict(an, solveKey(h, platform.XScale(4, 4), T))
	if !ok || v.layer > 16 || len(publishedVerdicts(an)) != 0 {
		t.Fatalf("premise: member verdict %+v (ok %v) within 16 layers and no family verdict (%d)", v, ok, len(publishedVerdicts(an)))
	}
	for _, n := range []int{4, 6} {
		pl := platform.XScale(n, n)
		for _, loose := range []float64{v.lifted, 2 * T, 10 * T} {
			got, ran := solveCounted(h, Instance{Graph: g, Platform: pl, Period: loose, Analysis: an})
			if ran {
				t.Errorf("%dx%d T %g: ran, want the lifted verdict replayed", n, n, loose)
			}
			if want := freshGraphOutcome(h, g, pl, loose); !sameResult(got, want) {
				t.Errorf("%dx%d T %g: replayed %v, fresh %v", n, n, loose, got, want)
			}
		}
	}
}

// liftChainFamily is verdictChain's scale family with a verdict published
// from a 4x4 run at T = 1 by the chain itself, which is light (its cut
// check rejects nothing). It returns the family and the published verdict.
func liftChainFamily(t *testing.T, h *DPA1D) (*spg.Analysis, memoVerdict) {
	t.Helper()
	fam := spg.NewAnalysis(verdictChain(t))
	pl := platform.XScale(4, 4)
	if got := solveOutcome(h, Instance{Graph: fam.Graph(), Platform: pl, Period: 1, Analysis: fam}); !got.budget {
		t.Fatalf("premise: recorder %v, want a budget failure", got)
	}
	fv, ok := publishedVerdict(fam, solveKey(h, pl, 1))
	if !ok || fv.layer <= 4 || fv.layer > 16 || !(fv.maxCut > 0) {
		t.Fatalf("premise: published verdict %+v (ok %v), want a layer in (4, 16] and a positive max cut", fv, ok)
	}
	return fam, fv
}

// TestDPA1DLiftedFamilyVerdictCertifiedAtQueryPeriod: a heavy CCR member
// replays a lifted family verdict when the max-cut certificate holds at the
// querying period's link capacity, though it fails at the recording
// period's; a heavier member, whose certificate fails at the querying
// period too, runs — and, its cut check pruning every split, finds the
// one-core mapping the verdict would have hidden. Both agree with fresh
// solves.
func TestDPA1DLiftedFamilyVerdictCertifiedAtQueryPeriod(t *testing.T) {
	h := &DPA1D{MaxStates: 1_000, MaxTransitions: 300}
	fam, fv := liftChainFamily(t, h)
	pl := platform.XScale(4, 4)
	const loose = 10.0
	margin := sumMargin(len(fam.Graph().Edges))
	for _, tc := range []struct {
		name   string
		x      float64 // ρ·maxCut, in units of LinkCapacity(1)
		replay bool
	}{{"heavy", 3, true}, {"heavier", 30, false}} {
		m := fam.ScaleToCCR(fam.CCR() * fv.maxCut / (tc.x * pl.LinkCapacity(1)))
		mg := m.Graph()
		cert := cutScale(mg, fv.rec) * fv.maxCut * margin
		if cutBound(mg) <= pl.LinkCapacity(loose) || cert <= pl.LinkCapacity(1) || (cert <= pl.LinkCapacity(loose)) != tc.replay {
			t.Fatalf("%s: premise: bound %g, certificate %g, link %g at T 1 and %g at T %g",
				tc.name, cutBound(mg), cert, pl.LinkCapacity(1), pl.LinkCapacity(loose), loose)
		}
		got, ran := solveCounted(h, Instance{Graph: mg, Platform: pl, Period: loose, Analysis: m})
		if ran == tc.replay {
			t.Errorf("%s: ran %v, want a replay %v", tc.name, ran, tc.replay)
		}
		want := freshGraphOutcome(h, mg, pl, loose)
		if !sameResult(got, want) {
			t.Errorf("%s: %v, fresh %v", tc.name, got, want)
		}
		if !tc.replay && want.err != "" {
			t.Errorf("%s: premise: fresh %v, want the one-core mapping", tc.name, want)
		}
	}
}

// TestDPA1DVerdictLiftBoundaries: a verdict recorded at T = 1 on 4x4
// replays at its lifted period and beyond, on chains of at least its layer,
// and nowhere else: not inside the lift's margin, not at a tighter period,
// not on a 2x2 chain, and not under a different bandwidth, speed ladder or
// budget. Every case matches a fresh solve; each refusal runs on a freshly
// warmed family, so no verdict a refused case records can answer another.
func TestDPA1DVerdictLiftBoundaries(t *testing.T) {
	h := &DPA1D{MaxStates: 1_000, MaxTransitions: 300}
	pl := platform.XScale(4, 4)
	otherBW := *platform.XScale(4, 4)
	otherBW.BW *= 2
	otherLadder := *platform.XScale(4, 4)
	otherLadder.Speeds, otherLadder.DynPower = otherLadder.Speeds[1:], otherLadder.DynPower[1:]
	_, fv := liftChainFamily(t, h)
	for _, tc := range []struct {
		name   string
		h      *DPA1D
		pl     *platform.Platform
		T      float64
		replay bool
	}{
		{"same period", h, pl, 1, true},
		{"lifted period", h, pl, fv.lifted, true},
		{"2T", h, pl, 2, true},
		{"10T on 6x6", h, platform.XScale(6, 6), 10, true},
		{"inside the margin", h, pl, math.Nextafter(fv.lifted, 0), false},
		{"one ulp looser", h, pl, math.Nextafter(1, 2), false},
		{"tighter period", h, pl, 0.5, false},
		{"2x2 chain", h, platform.XScale(2, 2), 10, false},
		{"other bandwidth", h, &otherBW, 10, false},
		{"other ladder", h, &otherLadder, 10, false},
		{"other state budget", &DPA1D{MaxStates: 1_001, MaxTransitions: 300}, pl, 10, false},
		{"other transition budget", &DPA1D{MaxStates: 1_000, MaxTransitions: 301}, pl, 10, false},
	} {
		fam, _ := liftChainFamily(t, h)
		g := fam.Graph()
		got, ran := solveCounted(tc.h, Instance{Graph: g, Platform: tc.pl, Period: tc.T, Analysis: fam})
		if ran == tc.replay {
			t.Errorf("%s (T %g): ran %v, want a replay %v", tc.name, tc.T, ran, tc.replay)
		}
		if want := freshGraphOutcome(tc.h, g, tc.pl, tc.T); !sameResult(got, want) || (ran && got != want) {
			t.Errorf("%s (T %g): %v, fresh %v", tc.name, tc.T, got, want)
		}
	}
}
