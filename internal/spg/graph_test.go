package spg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustChain(t *testing.T, k int) *Graph {
	t.Helper()
	w := make([]float64, k)
	v := make([]float64, k-1)
	for i := range w {
		w[i] = 1
	}
	for i := range v {
		v[i] = 1
	}
	g, err := Chain(w, v)
	if err != nil {
		t.Fatalf("Chain(%d): %v", k, err)
	}
	return g
}

func TestPrimitive(t *testing.T) {
	g := Primitive(2, 3, 5)
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("primitive has n=%d m=%d", g.N(), g.M())
	}
	if g.Stages[0].Label != (Label{1, 1}) || g.Stages[1].Label != (Label{2, 1}) {
		t.Fatalf("primitive labels wrong: %v %v", g.Stages[0].Label, g.Stages[1].Label)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("primitive invalid: %v", err)
	}
	if g.TotalWork() != 5 || g.TotalVolume() != 5 {
		t.Fatalf("work=%g volume=%g", g.TotalWork(), g.TotalVolume())
	}
}

func TestChainProperties(t *testing.T) {
	g := mustChain(t, 5)
	if g.Depth() != 5 || g.Elevation() != 1 {
		t.Fatalf("chain depth=%d elevation=%d", g.Depth(), g.Elevation())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("chain invalid: %v", err)
	}
	if g.Sink() != 4 {
		t.Fatalf("chain sink = %d", g.Sink())
	}
}

func TestChainErrors(t *testing.T) {
	if _, err := Chain([]float64{1}, nil); err == nil {
		t.Error("single-stage chain accepted")
	}
	if _, err := Chain([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("mismatched volumes accepted")
	}
}

// TestSeriesLabels reproduces the series composition example of Figure 1:
// composing a graph whose sink has x=4 with a 3-stage structure shifts the
// x labels of the second graph by 3.
func TestSeriesLabels(t *testing.T) {
	g1 := mustChain(t, 4) // labels (1,1)..(4,1)
	g2 := mustChain(t, 3) // labels (1,1)..(3,1)
	s := Series(g1, g2)
	if s.N() != 6 {
		t.Fatalf("series n=%d, want 6", s.N())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("series invalid: %v", err)
	}
	// Stage 4 of g2 (index 1 there) must be at x = 2 + (4-1) = 5.
	if got := s.Stages[4].Label; got != (Label{5, 1}) {
		t.Errorf("second-graph stage label = %v, want (5,1)", got)
	}
	if s.Depth() != 6 {
		t.Errorf("series depth = %d, want 6", s.Depth())
	}
}

func TestSeriesMergePolicies(t *testing.T) {
	g1 := Primitive(1, 2, 1)
	g2 := Primitive(3, 4, 1)
	if got := Series(g1, g2).Stages[1].Weight; got != 5 {
		t.Errorf("MergeSum weight = %g, want 5", got)
	}
	if got := SeriesWith(g1, g2, MergeKeepFirst).Stages[1].Weight; got != 2 {
		t.Errorf("MergeKeepFirst weight = %g, want 2", got)
	}
	if got := SeriesWith(g1, g2, MergeMax).Stages[1].Weight; got != 3 {
		t.Errorf("MergeMax weight = %g, want 3", got)
	}
}

// TestParallelLabels checks the parallel composition of Figure 1: the second
// graph's inner stages keep x and shift y by the first graph's elevation.
func TestParallelLabels(t *testing.T) {
	g1 := mustChain(t, 4) // longest path, elevation 1
	g2 := mustChain(t, 3)
	p := Parallel(g1, g2)
	if p.N() != 4+3-2 {
		t.Fatalf("parallel n=%d, want 5", p.N())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("parallel invalid: %v", err)
	}
	if p.Elevation() != 2 {
		t.Errorf("parallel elevation = %d, want 2", p.Elevation())
	}
	if p.Depth() != 4 {
		t.Errorf("parallel depth = %d, want 4 (longest branch)", p.Depth())
	}
	// The inner stage of g2 must be at (2, 2): x kept, y shifted by 1.
	found := false
	for _, s := range p.Stages {
		if s.Label == (Label{2, 2}) {
			found = true
		}
	}
	if !found {
		t.Errorf("no stage at (2,2) after parallel composition: %+v", p.Stages)
	}
}

// TestParallelSwap checks that the longer graph is used as the first operand
// regardless of argument order (the paper's rule x^(1)_{n1} >= x^(2)_{n2}).
func TestParallelSwap(t *testing.T) {
	short := mustChain(t, 3)
	long := mustChain(t, 5)
	p1 := Parallel(long, short)
	p2 := Parallel(short, long)
	if p1.Depth() != 5 || p2.Depth() != 5 {
		t.Fatalf("depths %d and %d, want 5", p1.Depth(), p2.Depth())
	}
	if p1.N() != p2.N() {
		t.Fatalf("sizes differ: %d vs %d", p1.N(), p2.N())
	}
	if err := p2.Validate(); err != nil {
		t.Fatalf("swapped parallel invalid: %v", err)
	}
}

// TestParallelOfPrimitives exercises parallel edges (a two-stage SPG composed
// in parallel with itself).
func TestParallelOfPrimitives(t *testing.T) {
	p := Parallel(Primitive(1, 1, 2), Primitive(1, 1, 3))
	if p.N() != 2 || p.M() != 2 {
		t.Fatalf("n=%d m=%d, want 2 and 2", p.N(), p.M())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("parallel-edge SPG invalid: %v", err)
	}
	if p.TotalVolume() != 5 {
		t.Errorf("volume = %g, want 5", p.TotalVolume())
	}
}

func TestForkJoin(t *testing.T) {
	fj, err := ForkJoin(0, 0,
		[]float64{1, 2, 3},
		[]float64{1, 1, 1},
		[]float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if fj.N() != 5 || fj.M() != 6 {
		t.Fatalf("fork-join n=%d m=%d", fj.N(), fj.M())
	}
	if fj.Elevation() != 3 {
		t.Errorf("fork-join elevation = %d, want 3", fj.Elevation())
	}
	if err := fj.Validate(); err != nil {
		t.Fatalf("fork-join invalid: %v", err)
	}
}

func TestForkJoinErrors(t *testing.T) {
	if _, err := ForkJoin(0, 0, nil, nil, nil); err == nil {
		t.Error("empty fork-join accepted")
	}
	if _, err := ForkJoin(0, 0, []float64{1}, []float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched volumes accepted")
	}
}

// randomSPG builds a random SPG with approximately n stages by recursive
// composition; used by property tests.
func randomSPG(rng *rand.Rand, n int) *Graph {
	if n <= 2 {
		return Primitive(rng.Float64(), rng.Float64(), rng.Float64())
	}
	k := 1 + rng.Intn(n-1)
	left := randomSPG(rng, k)
	right := randomSPG(rng, n-k)
	if rng.Intn(2) == 0 {
		return Series(left, right)
	}
	return Parallel(left, right)
}

// TestCompositionInvariants is the central property test of the label
// scheme: any sequence of compositions yields a valid SPG (unique labels,
// x strictly increasing along edges, source at (1,1), sink at y=1) whose
// stages of equal elevation are pairwise comparable.
func TestCompositionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSPG(rng, 2+rng.Intn(40))
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		r := NewReachability(g)
		for y, level := range Levels(g) {
			for i := 0; i < len(level); i++ {
				for j := i + 1; j < len(level); j++ {
					if !r.Comparable(level[i], level[j]) {
						t.Logf("seed %d: stages %d and %d at level %d not comparable",
							seed, level[i], level[j], y+1)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestComposedGraphsAreSeriesParallel checks that composition output is
// recognized by the SP decomposition.
func TestComposedGraphsAreSeriesParallel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSPG(rng, 2+rng.Intn(30))
		return IsSeriesParallel(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := &Graph{
		Stages: []Stage{
			{Label: Label{1, 1}}, {Label: Label{2, 1}},
		},
		Edges: []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}},
	}
	if err := g.Validate(); err == nil {
		t.Error("cyclic graph accepted")
	}
}

func TestValidateRejectsOutOfRangeEndpoint(t *testing.T) {
	for _, e := range []Edge{{Src: 0, Dst: 5}, {Src: 5, Dst: 1}, {Src: -1, Dst: 1}, {Src: 0, Dst: -2}} {
		g := &Graph{
			Stages: []Stage{{Label: Label{1, 1}}, {Label: Label{2, 1}}},
			Edges:  []Edge{e},
		}
		if err := g.Validate(); err == nil {
			t.Errorf("edge %d->%d accepted", e.Src, e.Dst)
		}
	}
}

func TestValidateRejectsDuplicateLabels(t *testing.T) {
	g := Primitive(1, 1, 1)
	g.Stages[1].Label = Label{1, 1}
	if err := g.Validate(); err == nil {
		t.Error("duplicate labels accepted")
	}
}

func TestValidateRejectsNonMonotoneX(t *testing.T) {
	g := Primitive(1, 1, 1)
	g.Stages[1].Label = Label{1, 2}
	if err := g.Validate(); err == nil {
		t.Error("edge with non-increasing x accepted")
	}
}

// TestValidateRejectsNaN: a NaN stage weight or edge volume is rejected
// (no solver can price it), and negative values keep their own message.
func TestValidateRejectsNaN(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(g *Graph)
		want string
	}{
		{"NaN weight", func(g *Graph) { g.Stages[1].Weight = math.NaN() }, "stage 1 has NaN weight"},
		{"NaN volume", func(g *Graph) { g.Edges[0].Volume = math.NaN() }, "edge 0 has NaN volume"},
		{"negative weight", func(g *Graph) { g.Stages[1].Weight = -1 }, "stage 1 has negative weight"},
		{"negative volume", func(g *Graph) { g.Edges[0].Volume = -1 }, "edge 0 has negative volume"},
	} {
		g := Primitive(1, 1, 1)
		tc.edit(g)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestTopoOrder(t *testing.T) {
	g := randomSPG(rand.New(rand.NewSource(7)), 25)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.N())
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges {
		if pos[e.Src] >= pos[e.Dst] {
			t.Fatalf("edge %d->%d violates topo order", e.Src, e.Dst)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Primitive(1, 2, 3)
	c := g.Clone()
	c.Stages[0].Weight = 99
	c.Edges[0].Volume = 99
	if g.Stages[0].Weight == 99 || g.Edges[0].Volume == 99 {
		t.Error("Clone shares storage with original")
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	fj, _ := ForkJoin(0, 0, []float64{1, 1}, []float64{1, 1}, []float64{1, 1})
	succ := fj.Successors(0)
	if len(succ) != 2 {
		t.Fatalf("source successors = %v", succ)
	}
	sink := fj.Sink()
	preds := fj.Predecessors(sink)
	if len(preds) != 2 {
		t.Fatalf("sink predecessors = %v", preds)
	}
}
