package spg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestAnalysisMatchesDirect: every memoized accessor must agree with the
// direct computation it replaces.
func TestAnalysisMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomSPG(rng, 4+rng.Intn(20))
		a := NewAnalysis(g)

		if err := a.Validate(); !reflect.DeepEqual(err, g.Validate()) {
			t.Fatalf("Validate: %v vs %v", err, g.Validate())
		}
		if got, want := a.Depth(), g.Depth(); got != want {
			t.Fatalf("Depth: %d vs %d", got, want)
		}
		if got, want := a.Elevation(), g.Elevation(); got != want {
			t.Fatalf("Elevation: %d vs %d", got, want)
		}
		if got, want := a.CCR(), CCR(g); got != want {
			t.Fatalf("CCR: %g vs %g", got, want)
		}
		if !reflect.DeepEqual(a.Levels(), Levels(g)) {
			t.Fatal("Levels mismatch")
		}
		if !reflect.DeepEqual(a.StageGrid(), StageGrid(g)) {
			t.Fatal("StageGrid mismatch")
		}
		topo, err := a.TopoOrder()
		wantTopo, wantErr := g.TopoOrder()
		if !reflect.DeepEqual(topo, wantTopo) || !reflect.DeepEqual(err, wantErr) {
			t.Fatal("TopoOrder mismatch")
		}
		r, want := a.Reachability(), NewReachability(g)
		for i := 0; i < g.N(); i++ {
			for j := 0; j < g.N(); j++ {
				if r.Reaches(i, j) != want.Reaches(i, j) {
					t.Fatalf("Reaches(%d,%d) mismatch", i, j)
				}
			}
		}
		pc := a.PredCounts()
		iv := a.InVolumes()
		for i := 0; i < g.N(); i++ {
			if pc[i] != len(g.Predecessors(i)) {
				t.Fatalf("PredCounts[%d] = %d, want %d", i, pc[i], len(g.Predecessors(i)))
			}
			var vol float64
			for _, e := range g.InEdges(i) {
				vol += g.Edges[e].Volume
			}
			if iv[i] != vol {
				t.Fatalf("InVolumes[%d] = %g, want %g", i, iv[i], vol)
			}
		}
	}
}

// TestAnalysisLabelPrefixSums: rectangle queries through the prefix sums
// must count exactly the stages whose labels fall inside the rectangle.
func TestAnalysisLabelPrefixSums(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomSPG(rng, 18)
	a := NewAnalysis(g)
	wp, cp := a.LabelPrefixSums()
	xmax, ymax := a.Depth(), a.Elevation()
	rect := func(p [][]float64, m1, m2, r1, r2 int) float64 {
		return p[m2][r2] - p[m1-1][r2] - p[m2][r1-1] + p[m1-1][r1-1]
	}
	for m1 := 1; m1 <= xmax; m1++ {
		for m2 := m1; m2 <= xmax; m2++ {
			for r1 := 1; r1 <= ymax; r1++ {
				for r2 := r1; r2 <= ymax; r2++ {
					var w float64
					var c int
					for _, s := range g.Stages {
						if s.Label.X >= m1 && s.Label.X <= m2 && s.Label.Y >= r1 && s.Label.Y <= r2 {
							w += s.Weight
							c++
						}
					}
					if got := rect(wp, m1, m2, r1, r2); math.Abs(got-w) > 1e-9 {
						t.Fatalf("weight rect [%d..%d]x[%d..%d] = %g, want %g", m1, m2, r1, r2, got, w)
					}
					if got := cp[m2][r2] - cp[m1-1][r2] - cp[m2][r1-1] + cp[m1-1][r1-1]; got != c {
						t.Fatalf("count rect [%d..%d]x[%d..%d] = %d, want %d", m1, m2, r1, r2, got, c)
					}
				}
			}
		}
	}
}

// TestAnalysisBand: band edge classification and the ancestor/descendant
// elevation masks must agree with brute-force recomputation from the global
// transitive closure (any path between band stages stays inside the band).
func TestAnalysisBand(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		g := randomSPG(rng, 6+rng.Intn(18))
		a := NewAnalysis(g)
		r := a.Reachability()
		xmax := a.Depth()
		bandsToCheck := [][2]int{{1, xmax}}
		if xmax >= 3 {
			bandsToCheck = append(bandsToCheck, [2]int{2, xmax - 1}, [2]int{1, xmax / 2})
		}
		for _, mm := range bandsToCheck {
			m1, m2 := mm[0], mm[1]
			b := a.Band(m1, m2)
			if b != a.Band(m1, m2) {
				t.Fatal("Band not memoized")
			}
			inBand := func(s int) bool {
				x := g.Stages[s].Label.X
				return x >= m1 && x <= m2
			}
			var wantInternal, wantOutgoing []int
			for ei, e := range g.Edges {
				switch {
				case inBand(e.Src) && inBand(e.Dst):
					wantInternal = append(wantInternal, ei)
				case inBand(e.Src) && g.Stages[e.Dst].Label.X > m2:
					wantOutgoing = append(wantOutgoing, ei)
				}
			}
			if !reflect.DeepEqual(b.Internal, wantInternal) || !reflect.DeepEqual(b.Outgoing, wantOutgoing) {
				t.Fatalf("band [%d..%d] edge classification mismatch", m1, m2)
			}
			for li, s := range b.Nodes {
				var wantAnc, wantDesc []uint64
				wantAnc = make([]uint64, b.Words)
				wantDesc = make([]uint64, b.Words)
				for _, o := range b.Nodes {
					y := uint(g.Stages[o].Label.Y - 1)
					if r.Reaches(o, s) {
						wantAnc[y/64] |= 1 << (y % 64)
					}
					if r.Reaches(s, o) {
						wantDesc[y/64] |= 1 << (y % 64)
					}
				}
				if !reflect.DeepEqual(b.Anc[li], wantAnc) {
					t.Fatalf("band [%d..%d] Anc of stage %d mismatch", m1, m2, s)
				}
				if !reflect.DeepEqual(b.Desc[li], wantDesc) {
					t.Fatalf("band [%d..%d] Desc of stage %d mismatch", m1, m2, s)
				}
			}
		}
	}
}

// TestAnalysisConcurrent hammers every accessor from several goroutines; run
// with -race to verify the locking.
func TestAnalysisConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomSPG(rng, 24)
	a := NewAnalysis(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = a.Validate()
				_ = a.Reachability()
				_ = a.Levels()
				_ = a.StageGrid()
				_, _ = a.TopoOrder()
				_ = a.Depth()
				_ = a.Elevation()
				_ = a.CCR()
				_ = a.PredCounts()
				_ = a.InVolumes()
				_, _ = a.LabelPrefixSums()
				_ = a.Band(1, a.Depth())
				ds, err := a.DownsetSpace(1 << 20)
				if err != nil {
					t.Error(err)
					return
				}
				_ = ds.Cout(ds.core.fullID)
			}
		}()
	}
	wg.Wait()
}

// TestAnalysisDownsetSpaceKeying: one space per budget, memoized.
func TestAnalysisDownsetSpaceKeying(t *testing.T) {
	g := mustChain(t, 6)
	a := NewAnalysis(g)
	ds1, err := a.DownsetSpace(100)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := a.DownsetSpace(100)
	if err != nil {
		t.Fatal(err)
	}
	if ds1 != ds2 {
		t.Error("same budget must return the same space")
	}
	ds3, err := a.DownsetSpace(200)
	if err != nil {
		t.Fatal(err)
	}
	if ds1 == ds3 {
		t.Error("different budgets must not share a space")
	}
}

// expansionSet flattens an expansion list into a comparable form: the sorted
// member sets of the reached downsets with their chunk works, independent of
// id numbering.
func expansionSet(ds *DownsetSpace, exps []expansion) map[string]float64 {
	out := make(map[string]float64, len(exps))
	for _, ex := range exps {
		out[fmt.Sprint(members(ds, ex.To))] = ex.ChunkWork
	}
	return out
}

// TestDownsetSpaceRunBudget: a space warmed by a previous run (larger work
// budget, extra interned states) must behave exactly like a fresh space in
// the next run — same expansions on success, same ErrStateLimit on budget
// exhaustion.
func TestDownsetSpaceRunBudget(t *testing.T) {
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

	// Success case: generous budget, two work levels.
	warm := newSpace(t, g, 1<<20)
	if _, err := expandEmpty(warm, 4); err != nil {
		t.Fatal(err)
	}
	warmExps, err := expandEmpty(warm, 2)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newSpace(t, g, 1<<20)
	freshExps, err := expandEmpty(fresh, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(expansionSet(warm, warmExps), expansionSet(fresh, freshExps)) {
		t.Error("warmed space enumerates different expansions than a fresh one")
	}

	// Failure case: tiny state budget must trip in the warmed space exactly
	// as it does in a fresh one, even though the warmed space was filled by
	// an earlier (also failing) run.
	warmTiny := newSpace(t, g, 40)
	_, err1 := expandEmpty(warmTiny, 8)
	_, err2 := expandEmpty(warmTiny, 6)
	_, err3 := expandEmpty(newSpace(t, g, 40), 6)
	if !errors.Is(err1, ErrStateLimit) {
		t.Errorf("first warm run error = %v, want ErrStateLimit", err1)
	}
	if !reflect.DeepEqual(err2, err3) {
		t.Errorf("warmed run error %v differs from fresh run error %v", err2, err3)
	}
}
