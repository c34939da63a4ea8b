package spg

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// freshScaled clones g, rescales it to the target CCR and wraps it in a
// brand-new analysis — the reference every family-shared scaled view must
// agree with, accessor by accessor, bit for bit.
func freshScaled(g *Graph, target float64) (*Graph, *Analysis) {
	g2 := g.Clone()
	ScaleToCCR(g2, target)
	return g2, NewAnalysis(g2)
}

func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// checkScaledAgreement compares every Analysis accessor between the
// family-shared scaled view and a fresh analysis of an independently
// rescaled clone. Floats are compared by bit pattern: the scaled view must
// recompute volume-dependent entries with exactly the arithmetic a fresh
// build uses.
func checkScaledAgreement(t *testing.T, g *Graph, target float64) {
	t.Helper()
	base := NewAnalysis(g)
	scaled := base.ScaleToCCR(target)
	freshG, fresh := freshScaled(g, target)

	if scaled != base.ScaleToCCR(target) {
		t.Fatalf("target %g: scaled view not memoized", target)
	}

	// The scaled graph itself must be bit-identical to an independent clone
	// put through the package-level ScaleToCCR.
	sg := scaled.Graph()
	if len(sg.Edges) != len(freshG.Edges) {
		t.Fatalf("target %g: edge count drifted", target)
	}
	for e := range sg.Edges {
		if math.Float64bits(sg.Edges[e].Volume) != math.Float64bits(freshG.Edges[e].Volume) {
			t.Fatalf("target %g: edge %d volume %.17g != fresh %.17g",
				target, e, sg.Edges[e].Volume, freshG.Edges[e].Volume)
		}
	}
	if !reflect.DeepEqual(sg.Stages, freshG.Stages) {
		t.Fatalf("target %g: stages drifted under scaling", target)
	}

	if !sameErr(scaled.Validate(), fresh.Validate()) {
		t.Fatalf("target %g: Validate %v != fresh %v", target, scaled.Validate(), fresh.Validate())
	}
	if scaled.Depth() != fresh.Depth() || scaled.Elevation() != fresh.Elevation() {
		t.Fatalf("target %g: dims drifted", target)
	}
	if math.Float64bits(scaled.CCR()) != math.Float64bits(fresh.CCR()) {
		t.Fatalf("target %g: CCR %.17g != fresh %.17g", target, scaled.CCR(), fresh.CCR())
	}
	if !reflect.DeepEqual(scaled.Levels(), fresh.Levels()) {
		t.Fatalf("target %g: Levels mismatch", target)
	}
	if !reflect.DeepEqual(scaled.StageGrid(), fresh.StageGrid()) {
		t.Fatalf("target %g: StageGrid mismatch", target)
	}
	to1, err1 := scaled.TopoOrder()
	to2, err2 := fresh.TopoOrder()
	if !reflect.DeepEqual(to1, to2) || !sameErr(err1, err2) {
		t.Fatalf("target %g: TopoOrder mismatch", target)
	}
	r1, r2 := scaled.Reachability(), fresh.Reachability()
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if r1.Reaches(i, j) != r2.Reaches(i, j) {
				t.Fatalf("target %g: Reaches(%d,%d) mismatch", target, i, j)
			}
		}
	}
	if !reflect.DeepEqual(scaled.PredCounts(), fresh.PredCounts()) {
		t.Fatalf("target %g: PredCounts mismatch", target)
	}
	iv1, iv2 := scaled.InVolumes(), fresh.InVolumes()
	for i := range iv1 {
		if math.Float64bits(iv1[i]) != math.Float64bits(iv2[i]) {
			t.Fatalf("target %g: InVolumes[%d] %.17g != fresh %.17g", target, i, iv1[i], iv2[i])
		}
	}
	w1, c1 := scaled.LabelPrefixSums()
	w2, c2 := fresh.LabelPrefixSums()
	if !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(c1, c2) {
		t.Fatalf("target %g: LabelPrefixSums mismatch", target)
	}

	// Bands: structural fields identical, crossing volumes bit-identical,
	// convexity verdicts identical over every rectangle.
	xmax, ymax := scaled.Depth(), scaled.Elevation()
	bandsToCheck := [][2]int{{1, xmax}}
	if xmax >= 3 {
		bandsToCheck = append(bandsToCheck, [2]int{2, xmax - 1}, [2]int{1, xmax / 2}, [2]int{xmax/2 + 1, xmax})
	}
	for _, mm := range bandsToCheck {
		b1 := scaled.Band(mm[0], mm[1])
		b2 := fresh.Band(mm[0], mm[1])
		if !reflect.DeepEqual(b1.Internal, b2.Internal) || !reflect.DeepEqual(b1.Outgoing, b2.Outgoing) ||
			!reflect.DeepEqual(b1.Nodes, b2.Nodes) || !reflect.DeepEqual(b1.Anc, b2.Anc) ||
			!reflect.DeepEqual(b1.Desc, b2.Desc) {
			t.Fatalf("target %g: band [%d..%d] structure mismatch", target, mm[0], mm[1])
		}
		for gp := 0; gp <= ymax; gp++ {
			if math.Float64bits(b1.UpInt[gp]) != math.Float64bits(b2.UpInt[gp]) ||
				math.Float64bits(b1.DownInt[gp]) != math.Float64bits(b2.DownInt[gp]) {
				t.Fatalf("target %g: band [%d..%d] crossing volume at boundary %d mismatch",
					target, mm[0], mm[1], gp)
			}
		}
		for r1i := 1; r1i <= ymax; r1i++ {
			for r2i := r1i; r2i <= ymax; r2i++ {
				if b1.RowsConvex(r1i, r2i) != b2.RowsConvex(r1i, r2i) {
					t.Fatalf("target %g: band [%d..%d] RowsConvex(%d,%d) mismatch",
						target, mm[0], mm[1], r1i, r2i)
				}
			}
		}
	}

	// Downset spaces: the shared lattice must enumerate the same expansions
	// (chunk works are weight sums, untouched by scaling) and the per-scale
	// cut volumes must match a fresh space bit for bit.
	ds1, derr1 := scaled.DownsetSpace(1 << 20)
	ds2, derr2 := fresh.DownsetSpace(1 << 20)
	if !sameErr(derr1, derr2) {
		t.Fatalf("target %g: DownsetSpace err %v != fresh %v", target, derr1, derr2)
	}
	if derr1 != nil {
		return
	}
	// Runs on both spaces must list the same run indices and chunk works,
	// and every touched downset (the full set included) the same members
	// and cut volume.
	maxWork := g.TotalWork() / 3
	run1, run2 := ds1.NewRun(), ds2.NewRun()
	defer run1.Close()
	defer run2.Close()
	buf := func(n int) ([]int32, []float64) { return make([]int32, n), make([]float64, n) }
	idx1, cw1, eerr1 := run1.Expand(0, maxWork, buf)
	idx2, cw2, eerr2 := run2.Expand(0, maxWork, buf)
	if !sameErr(eerr1, eerr2) {
		t.Fatalf("target %g: Expand err %v != fresh %v", target, eerr1, eerr2)
	}
	if !reflect.DeepEqual(idx1, idx2) || !reflect.DeepEqual(cw1, cw2) {
		t.Fatalf("target %g: expansions differ between scaled view and fresh space", target)
	}
	if run1.Count() != run2.Count() {
		t.Fatalf("target %g: runs touched %d and %d downsets", target, run1.Count(), run2.Count())
	}
	for k := 0; k < run1.Count(); k++ {
		m1, m2 := members(ds1, run1.ID(k)), members(ds2, run2.ID(k))
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("target %g: run index %d holds %v, fresh %v", target, k, m1, m2)
		}
		if math.Float64bits(run1.Cout(k)) != math.Float64bits(run2.Cout(k)) {
			t.Fatalf("target %g: Cout(%v) %.17g != fresh %.17g", target, m1, run1.Cout(k), run2.Cout(k))
		}
	}
}

// TestScaledAnalysisMatchesFresh: on random SPGs and over the paper's CCR
// targets, a ScaleToCCR-derived analysis must agree with a fresh analysis of
// an independently rescaled clone on every accessor, bit for bit.
func TestScaledAnalysisMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	targets := []float64{10, 1, 0.1, 2.5}
	for trial := 0; trial < 12; trial++ {
		g := randomSPG(rng, 6+rng.Intn(22))
		for _, target := range targets {
			checkScaledAgreement(t, g, target)
		}
	}
}

// TestScaledAnalysisBudgetEpochs: the family-shared downset lattice must hit
// (or clear) a run's state budget at exactly the same point for a scaled
// view as for a fresh space — including when the lattice was warmed by a
// sibling scale's earlier, larger-budget run.
func TestScaledAnalysisBudgetEpochs(t *testing.T) {
	middle := make([]float64, 12)
	vols := make([]float64, 12)
	for i := range middle {
		middle[i] = 1
		vols[i] = 1
	}
	g, err := ForkJoin(1, 1, middle, vols, vols)
	if err != nil {
		t.Fatal(err)
	}
	base := NewAnalysis(g)
	scaled := base.ScaleToCCR(0.5)

	// Warm the shared lattice generously through the base member...
	baseDS, err := base.DownsetSpace(40)
	if err != nil {
		t.Fatal(err)
	}
	_, warmErr := expandEmpty(baseDS, 8)
	if !errors.Is(warmErr, ErrStateLimit) {
		t.Fatalf("warming run error = %v, want ErrStateLimit", warmErr)
	}

	// ...then the scaled sibling's run must fail exactly like a fresh space
	// with the same budget, despite the leftover interned states.
	scaledDS, err := scaled.DownsetSpace(40)
	if err != nil {
		t.Fatal(err)
	}
	if scaledDS == baseDS {
		t.Fatal("sibling scales must hold distinct views")
	}
	_, gotErr := expandEmpty(scaledDS, 6)

	freshG, fresh := freshScaled(g, 0.5)
	_ = freshG
	freshDS, err := fresh.DownsetSpace(40)
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := expandEmpty(freshDS, 6)
	if !sameErr(gotErr, wantErr) {
		t.Fatalf("warmed sibling run error %v differs from fresh run error %v", gotErr, wantErr)
	}

	// Success case at a budget both clear: identical expansion sets and cuts.
	bigBase, err := base.DownsetSpace(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := expandEmpty(bigBase, 8); err != nil {
		t.Fatal(err)
	}
	bigScaled, err := scaled.DownsetSpace(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := expandEmpty(bigScaled, 4)
	if err != nil {
		t.Fatal(err)
	}
	freshBig, err := fresh.DownsetSpace(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	want, err := expandEmpty(freshBig, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(expansionSet(bigScaled, got), expansionSet(freshBig, want)) {
		t.Fatal("warmed sibling enumerates different expansions than a fresh space")
	}
}

// TestScaleToCCREviction: evicting a budget-failed space through one family
// member must also drop the shared lattice core, so the next request starts
// from a fresh, unbloated space.
func TestScaleToCCREviction(t *testing.T) {
	g := mustChain(t, 8)
	base := NewAnalysis(g)
	ds, err := base.DownsetSpace(100)
	if err != nil {
		t.Fatal(err)
	}
	base.EvictDownsetSpace(100, ds)
	ds2, err := base.DownsetSpace(100)
	if err != nil {
		t.Fatal(err)
	}
	if ds2 == ds {
		t.Fatal("eviction did not drop the view")
	}
	if n := ds2.InternedCount(); n != 2 {
		t.Fatalf("post-eviction space has %d interned states, want a fresh core with 2", n)
	}
}
