package spg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecomposePrimitive(t *testing.T) {
	tree, err := Decompose(Primitive(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Kind != DecompLeaf || tree.Edge != 0 {
		t.Fatalf("primitive decomposition: %+v", tree)
	}
	if tree.Leaves() != 1 {
		t.Fatalf("leaves = %d", tree.Leaves())
	}
}

func TestDecomposeChain(t *testing.T) {
	g := mustChain(t, 4)
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	// A chain of 4 stages has 3 edges -> 3 leaves, all series nodes inside.
	if tree.Leaves() != 3 {
		t.Fatalf("leaves = %d, want 3", tree.Leaves())
	}
	var countParallel func(*DecompNode) int
	countParallel = func(d *DecompNode) int {
		if d == nil || d.Kind == DecompLeaf {
			return 0
		}
		c := countParallel(d.Left) + countParallel(d.Right)
		if d.Kind == DecompParallel {
			c++
		}
		return c
	}
	if c := countParallel(tree); c != 0 {
		t.Errorf("chain decomposition contains %d parallel nodes", c)
	}
}

func TestDecomposeForkJoin(t *testing.T) {
	fj, _ := ForkJoin(0, 0, []float64{1, 1, 1}, []float64{1, 1, 1}, []float64{1, 1, 1})
	tree, err := Decompose(fj)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves() != fj.M() {
		t.Fatalf("leaves = %d, want %d", tree.Leaves(), fj.M())
	}
	if tree.Src != fj.Source() || tree.Dst != fj.Sink() {
		t.Errorf("root terminals (%d,%d), want (%d,%d)", tree.Src, tree.Dst, fj.Source(), fj.Sink())
	}
}

// TestDecomposeRejectsNonSP: the "N graph" (a -> c, a -> d, b -> d with
// terminals added) is the canonical non-series-parallel DAG.
func TestDecomposeRejectsNonSP(t *testing.T) {
	// Stages: 0=source, 1=a, 2=b, 3=c, 4=d, 5=sink. The inner pattern
	// a->c, a->d, b->d forms the forbidden "N".
	g := &Graph{
		Stages: []Stage{
			{Label: Label{1, 1}}, {Label: Label{2, 1}}, {Label: Label{2, 2}},
			{Label: Label{3, 1}}, {Label: Label{3, 2}}, {Label: Label{4, 1}},
		},
		Edges: []Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 2},
			{Src: 1, Dst: 3}, {Src: 1, Dst: 4}, {Src: 2, Dst: 4},
			{Src: 3, Dst: 5}, {Src: 4, Dst: 5},
		},
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	if IsSeriesParallel(g) {
		t.Error("N-graph recognized as series-parallel")
	}
}

func TestDecomposeLeafCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSPG(rng, 2+rng.Intn(35))
		tree, err := Decompose(g)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return tree.Leaves() == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(&Graph{Stages: []Stage{{}}}); err == nil {
		t.Error("single-node graph accepted")
	}
	cyclic := &Graph{
		Stages: []Stage{{Label: Label{1, 1}}, {Label: Label{2, 1}}},
		Edges:  []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}},
	}
	if _, err := Decompose(cyclic); err == nil {
		t.Error("cyclic graph accepted")
	}
}

func TestDecompKindString(t *testing.T) {
	if DecompLeaf.String() != "leaf" || DecompSeries.String() != "series" ||
		DecompParallel.String() != "parallel" {
		t.Error("DecompKind strings wrong")
	}
	if DecompKind(9).String() == "" {
		t.Error("unknown kind has empty string")
	}
}

// renderTree writes d in prefix form, naming leaves by edge index.
func renderTree(d *DecompNode) string {
	if d.Kind == DecompLeaf {
		return fmt.Sprintf("e%d", d.Edge)
	}
	return fmt.Sprintf("%s(%s,%s)", d.Kind, renderTree(d.Left), renderTree(d.Right))
}

// TestDecomposeDeterministic: repeated Decompose calls return identical
// trees, down to the child order of every parallel node.
func TestDecomposeDeterministic(t *testing.T) {
	fj, err := ForkJoin(0, 0, []float64{1, 1, 1, 1}, []float64{1, 1, 1, 1}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	shaped, err := BuildShape(60, 8, 12, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{fj, shaped, randomSPG(rand.New(rand.NewSource(5)), 40)} {
		first, err := Decompose(g)
		if err != nil {
			t.Fatal(err)
		}
		want := renderTree(first)
		for i := 0; i < 50; i++ {
			tree, err := Decompose(g)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderTree(tree); got != want {
				t.Fatalf("call %d: tree %s, first call %s", i, got, want)
			}
		}
	}
}

// TestDecomposeAllocs bounds Decompose's allocations on a 2,000-stage
// elevation-20 SPG: its slabs and lists are sized up front, so the count
// does not grow with the graph (16,228 allocations with per-vertex maps).
func TestDecomposeAllocs(t *testing.T) {
	g, err := BuildShape(2000, 20, 200, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompose(g); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := Decompose(g); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", got)
	if got > 20 {
		t.Errorf("Decompose: %.0f allocations, want at most 20", got)
	}
}
