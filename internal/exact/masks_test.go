package exact

import (
	"context"
	"fmt"
	"math"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
)

// TestBnBPlacementsPinned pins Stats.Placements and the optimum's energy
// bits at Workers: 1 on the BenchmarkExactSolver rows and on every instance
// of the exact-frontier family the benchmark pool draws from (randspg,
// elevation 4, CCR 10, period 0.2 x total work; 3x3 at N=10, 4x3 at N=11).
// The values were recorded from the search that tested every free core one
// by one, before the hop-radius candidate masks: the masks only skip cores
// the bound test would reject, so the complete placements evaluated must not
// move by one.
func TestBnBPlacementsPinned(t *testing.T) {
	for _, r := range pinnedRows {
		s := NewSolver()
		s.Workers = 1
		sol, st, err := s.SolveStats(context.Background(), r.instance(t))
		if err != nil {
			t.Errorf("%s: %v", r, err)
			continue
		}
		if st.Placements != r.placements {
			t.Errorf("%s: %d placements, want %d", r, st.Placements, r.placements)
		}
		if math.Float64bits(sol.Result.Energy) != math.Float64bits(r.energy) {
			t.Errorf("%s: energy %.17g, want %.17g", r, sol.Result.Energy, r.energy)
		}
	}
}

// TestBnBSeedIsDPA1D pins the incumbent seed on every pinned row: it is
// DPA1D's mapping, stripped of its pinned paths and re-evaluated with
// mapping.Evaluate, to the bit.
func TestBnBSeedIsDPA1D(t *testing.T) {
	for _, r := range pinnedRows {
		inst := r.instance(t)
		sol, err := core.NewDPA1D().Solve(inst)
		if err != nil {
			t.Fatalf("%s: DPA1D: %v", r, err)
		}
		m := sol.Mapping.Clone()
		m.Paths = nil
		want, err := mapping.Evaluate(inst.Graph, inst.Platform, m, inst.Period)
		if err != nil {
			t.Fatalf("%s: stripped DPA1D mapping: %v", r, err)
		}
		s := NewSolver()
		s.Workers = 1
		_, st, err := s.SolveStats(context.Background(), inst)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if !st.Seeded || math.Float64bits(st.SeedEnergy) != math.Float64bits(want.Energy) {
			t.Errorf("%s: seeded %v, seed energy %.17g, want %.17g", r, st.Seeded, st.SeedEnergy, want.Energy)
		}
	}
}

// TestBnBUnseededWhenDPA1DFails: on an instance where DPA1D finds no
// mapping (low CCR, tight period, elevation 5), the search runs unseeded
// and still returns the oracle's optimum bit for bit, at its pinned energy.
func TestBnBUnseededWhenDPA1DFails(t *testing.T) {
	g, err := randspg.Generate(randspg.Params{N: 9, Elevation: 5, Seed: 2, CCR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	inst := core.Instance{Graph: g, Platform: platform.XScale(2, 3), Period: 0.2 * g.TotalWork()}
	if _, err := core.NewDPA1D().Solve(inst); err == nil {
		t.Fatal("DPA1D found a mapping; the instance no longer exercises the unseeded path")
	}
	sol, st, err := NewSolver().SolveStats(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seeded {
		t.Fatalf("seeded at %.17g without a DPA1D mapping", st.SeedEnergy)
	}
	want, _, wantErr := NewSolver().solveOracle(context.Background(), inst, true)
	requireIdentical(t, "unseeded", want, wantErr, sol, err)
	if e := sol.Result.Energy; math.Float64bits(e) != math.Float64bits(1.0923311009818828) {
		t.Fatalf("optimum %.17g, want 1.0923311009818828", e)
	}
}

// pinnedRow is one TestBnBPlacementsPinned instance: a randspg graph at CCR
// 10 on a p x q grid, its period frac x total work, with the pinned
// placement count and optimum energy.
type pinnedRow struct {
	p, q, n, elevation int
	seed               int64
	frac               float64
	placements         int64
	energy             float64
}

func (r pinnedRow) String() string {
	return fmt.Sprintf("%dx%d n=%d y=%d seed=%d", r.p, r.q, r.n, r.elevation, r.seed)
}

func (r pinnedRow) instance(t *testing.T) core.Instance {
	t.Helper()
	g, err := randspg.Generate(randspg.Params{N: r.n, Elevation: r.elevation, Seed: r.seed, CCR: 10})
	if err != nil {
		t.Fatal(err)
	}
	return core.Instance{Graph: g, Platform: platform.XScale(r.p, r.q), Period: r.frac * g.TotalWork()}
}

var pinnedRows = []pinnedRow{
	// BenchmarkExactSolver rows.
	{2, 2, 7, 2, 1, 0.30, 1, 0.49620074546094278},
	{2, 3, 9, 3, 1, 0.25, 5, 0.44197203564960291},
	{3, 3, 10, 4, 9, 0.20, 16, 0.62786251466384169},
	// Exact-frontier family, 3x3.
	{3, 3, 10, 4, 1, 0.20, 6, 0.53442219014501646},
	{3, 3, 10, 4, 2, 0.20, 7, 0.62808951916227762},
	{3, 3, 10, 4, 3, 0.20, 10, 0.64927818881074384},
	{3, 3, 10, 4, 4, 0.20, 11, 0.5624856488342812},
	{3, 3, 10, 4, 5, 0.20, 13, 0.63836877243280599},
	{3, 3, 10, 4, 6, 0.20, 13, 0.65135474724883946},
	{3, 3, 10, 4, 7, 0.20, 18, 0.69475582816015558},
	{3, 3, 10, 4, 8, 0.20, 12, 0.66325344097234895},
	{3, 3, 10, 4, 10, 0.20, 10, 0.78283830578806013},
	{3, 3, 10, 4, 11, 0.20, 12, 0.60860249480625939},
	{3, 3, 10, 4, 12, 0.20, 13, 0.62216647430020799},
	{3, 3, 10, 4, 13, 0.20, 13, 0.66514169136881252},
	{3, 3, 10, 4, 14, 0.20, 28, 0.56404243428623124},
	{3, 3, 10, 4, 15, 0.20, 24, 0.7139983557949946},
	{3, 3, 10, 4, 16, 0.20, 9, 0.64652621886154338},
	{3, 3, 10, 4, 17, 0.20, 19, 0.64193557735169271},
	{3, 3, 10, 4, 18, 0.20, 14, 0.68149308865796721},
	{3, 3, 10, 4, 20, 0.20, 9, 0.60301288126837804},
	{3, 3, 10, 4, 21, 0.20, 8, 0.56817956287006466},
	{3, 3, 10, 4, 22, 0.20, 19, 0.68639281882530756},
	{3, 3, 10, 4, 23, 0.20, 27, 0.50172185394663416},
	{3, 3, 10, 4, 25, 0.20, 17, 0.54616690903886922},
	{3, 3, 10, 4, 26, 0.20, 13, 0.68456666086542961},
	// Exact-frontier family, 4x3; seed 3 is also the benchmark's 4x3 row.
	{4, 3, 11, 4, 1, 0.20, 22, 0.50573559892249265},
	{4, 3, 11, 4, 2, 0.20, 30, 0.60865331504043219},
	{4, 3, 11, 4, 3, 0.20, 31, 0.69933016283668981},
	{4, 3, 11, 4, 4, 0.20, 42, 0.55880662686700189},
	{4, 3, 11, 4, 5, 0.20, 49, 0.65874303687089097},
	{4, 3, 11, 4, 6, 0.20, 30, 0.60944156708065278},
	{4, 3, 11, 4, 7, 0.20, 52, 0.65975126616872859},
	{4, 3, 11, 4, 8, 0.20, 92, 0.56604378113667264},
}

// TestCoreBallsMatchManhattan checks the hop-radius mask table against
// platform.Manhattan: core y is in ball(h, x) exactly when it lies within
// distance h of x, for every radius up to the diameter less one, and no
// bit beyond the last core is ever set.
func TestCoreBallsMatchManhattan(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 2}, {1, 7}, {1, 70}, {3, 3}, {4, 3}, {9, 8}} {
		pl := platform.XScale(dims[0], dims[1])
		cores := pl.NumCores()
		b := newCoreBalls(cores, mapping.HopExcess(pl))
		if want := max(0, dims[0]+dims[1]-3); b.maxH != want {
			t.Fatalf("%dx%d: maxH %d, want %d", dims[0], dims[1], b.maxH, want)
		}
		if want := (cores + 63) / 64; b.words != want {
			t.Fatalf("%dx%d: %d words, want %d", dims[0], dims[1], b.words, want)
		}
		core := func(i int) platform.Core { return platform.Core{U: i / pl.Q, V: i % pl.Q} }
		for h := 1; h <= b.maxH; h++ {
			for x := 0; x < cores; x++ {
				row := b.ball(h, x)
				for y := 0; y < 64*b.words; y++ {
					got := row[y/64]&(1<<(y%64)) != 0
					want := y < cores && platform.Manhattan(core(x), core(y)) <= h
					if got != want {
						t.Fatalf("%dx%d: core %d in ball(%d, %d) = %v, want %v", dims[0], dims[1], y, h, x, got, want)
					}
				}
			}
		}
	}
}

// TestQuotientAcyclicAllocatesNothing pins the DAG-partition check to its
// caller's buffer, and its verdicts on a fixed chain: grouping stages 0 and
// 2 around stage 1 makes the quotient cyclic.
func TestQuotientAcyclicAllocatesNothing(t *testing.T) {
	g, err := spg.Chain([]float64{1, 1, 1, 1}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := newQuotientBuf(4)
	for _, tc := range []struct {
		part []int
		k    int
		want bool
	}{
		{[]int{0, 0, 1, 1}, 2, true},
		{[]int{0, 1, 2, 3}, 4, true},
		{[]int{0, 1, 0, 2}, 3, false},
		{[]int{0, 1, 1, 0}, 2, false},
	} {
		if got := quotientAcyclic(g, tc.part, tc.k, buf); got != tc.want {
			t.Fatalf("partition %v: acyclic %v, want %v", tc.part, got, tc.want)
		}
	}
	part := []int{0, 1, 2, 1}
	if allocs := testing.AllocsPerRun(100, func() { quotientAcyclic(g, part, 3, buf) }); allocs != 0 {
		t.Fatalf("quotientAcyclic allocates %v times per call", allocs)
	}
}
