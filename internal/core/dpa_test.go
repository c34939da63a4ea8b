package core

import (
	"math"
	"testing"

	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// TestDPA1DChunksAreContiguousOnSnake: DPA1D's clusters occupy a prefix of
// the snake with no holes, and all pinned paths follow the snake.
func TestDPA1DChunksAreContiguousOnSnake(t *testing.T) {
	pl := platform.XScale(4, 4)
	snake := platform.NewSnake(pl)
	for seed := int64(0); seed < 5; seed++ {
		g := testRandomSPG(t, seed, 20, 10)
		inst := Instance{Graph: g, Platform: pl, Period: 0.1}
		sol, err := NewDPA1D().Solve(inst)
		if err != nil {
			continue
		}
		used := make(map[int]bool)
		maxPos := -1
		for _, c := range sol.Mapping.Alloc {
			k := snake.Position(c)
			used[k] = true
			if k > maxPos {
				maxPos = k
			}
		}
		for k := 0; k <= maxPos; k++ {
			if !used[k] {
				t.Errorf("seed %d: snake position %d unused inside the prefix", seed, k)
			}
		}
		// Stages must be assigned in topological-compatible snake order:
		// an edge never goes backwards along the snake.
		for _, e := range g.Edges {
			a := snake.Position(sol.Mapping.Alloc[e.Src])
			b := snake.Position(sol.Mapping.Alloc[e.Dst])
			if b < a {
				t.Errorf("seed %d: edge %d->%d goes backwards on the snake (%d -> %d)",
					seed, e.Src, e.Dst, a, b)
			}
		}
	}
}

// TestDPA1DMonotoneInPeriod: loosening the period can only lower the optimal
// 1D energy.
func TestDPA1DMonotoneInPeriod(t *testing.T) {
	pl := platform.XScale(4, 4)
	g := testRandomSPG(t, 7, 18, 10)
	var prev float64 = math.Inf(1)
	for _, T := range []float64{0.05, 0.1, 0.2, 0.5, 1} {
		sol, err := NewDPA1D().Solve(Instance{Graph: g, Platform: pl, Period: T})
		if err != nil {
			continue
		}
		if sol.Energy() > prev*(1+1e-9) {
			t.Errorf("T=%g: energy %.9g rose above tighter-period energy %.9g", T, sol.Energy(), prev)
		}
		prev = sol.Energy()
	}
}

// TestDPA2DColumnStructure: every DPA2D cluster occupies a single column and
// the x ranges of the columns are increasing bands.
func TestDPA2DColumnStructure(t *testing.T) {
	pl := platform.XScale(4, 4)
	for seed := int64(0); seed < 8; seed++ {
		g := testRandomSPG(t, seed, 35, 10)
		sol, err := NewDPA2D().Solve(Instance{Graph: g, Platform: pl, Period: 0.3})
		if err != nil {
			continue
		}
		minX := make(map[int]int)
		maxX := make(map[int]int)
		for i, c := range sol.Mapping.Alloc {
			x := g.Stages[i].Label.X
			if cur, ok := minX[c.V]; !ok || x < cur {
				minX[c.V] = x
			}
			if cur, ok := maxX[c.V]; !ok || x > cur {
				maxX[c.V] = x
			}
		}
		// Bands must not overlap: max x of column v < min x of column v+1.
		for v := 0; v < pl.Q-1; v++ {
			if _, ok := maxX[v]; !ok {
				continue
			}
			if _, ok := minX[v+1]; !ok {
				continue
			}
			if maxX[v] >= minX[v+1] {
				t.Errorf("seed %d: column bands overlap: col %d ends at x=%d, col %d starts at x=%d",
					seed, v, maxX[v], v+1, minX[v+1])
			}
		}
	}
}

// TestDPA2DRowStructure: within a column, rows are grouped in increasing
// order across cores.
func TestDPA2DRowStructure(t *testing.T) {
	pl := platform.XScale(4, 4)
	g := testRandomSPG(t, 11, 35, 10)
	sol, err := NewDPA2D().Solve(Instance{Graph: g, Platform: pl, Period: 0.3})
	if err != nil {
		t.Skip("DPA2D failed on this instance")
	}
	type key struct{ v, u int }
	minY := make(map[key]int)
	maxY := make(map[key]int)
	for i, c := range sol.Mapping.Alloc {
		y := g.Stages[i].Label.Y
		k := key{c.V, c.U}
		if cur, ok := minY[k]; !ok || y < cur {
			minY[k] = y
		}
		if cur, ok := maxY[k]; !ok || y > cur {
			maxY[k] = y
		}
	}
	for v := 0; v < pl.Q; v++ {
		for u := 0; u < pl.P-1; u++ {
			a, okA := maxY[key{v, u}]
			for un := u + 1; un < pl.P && okA; un++ {
				if b, okB := minY[key{v, un}]; okB && b <= a {
					t.Errorf("column %d: core %d rows end at y=%d but core %d starts at y=%d",
						v, u, a, un, b)
				}
			}
		}
	}
}

// TestDPA2D1DOnSingleRowPlatform: on a 1xQ platform DPA2D and DPA2D1D
// coincide up to the snake embedding (identical energy).
func TestDPA2D1DOnSingleRowPlatform(t *testing.T) {
	pl := platform.XScale(1, 8)
	g := testRandomSPG(t, 4, 20, 10)
	inst := Instance{Graph: g, Platform: pl, Period: 0.3}
	a, errA := NewDPA2D().Solve(inst)
	b, errB := NewDPA2D1D().Solve(inst)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("feasibility differs: %v vs %v", errA, errB)
	}
	if errA != nil {
		t.Skip("both failed")
	}
	if math.Abs(a.Energy()-b.Energy()) > 1e-9*math.Max(1, a.Energy()) {
		t.Errorf("DPA2D %.9g vs DPA2D1D %.9g on a 1-row platform", a.Energy(), b.Energy())
	}
}

// TestInstanceValidate covers the instance sanity checks.
func TestInstanceValidate(t *testing.T) {
	good := Instance{
		Graph:    spg.Primitive(0.01, 0.01, 0.001),
		Platform: platform.XScale(2, 2),
		Period:   1,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Period = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero period accepted")
	}
	bad = good
	bad.Graph = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil graph accepted")
	}
	bad = good
	bad.Platform = &platform.Platform{}
	if err := bad.Validate(); err == nil {
		t.Error("invalid platform accepted")
	}
}

// TestAllReturnsFiveHeuristics pins the paper's heuristic set and order.
func TestAllReturnsFiveHeuristics(t *testing.T) {
	hs := All(1)
	want := []string{"Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D"}
	if len(hs) != len(want) {
		t.Fatalf("All returned %d heuristics", len(hs))
	}
	for i, h := range hs {
		if h.Name() != want[i] {
			t.Errorf("heuristic %d is %s, want %s", i, h.Name(), want[i])
		}
	}
}

// TestSolutionsAlwaysWithinPeriod is the blanket safety property across the
// whole heuristic portfolio and many instances.
func TestSolutionsAlwaysWithinPeriod(t *testing.T) {
	pl := platform.XScale(4, 4)
	for seed := int64(20); seed < 30; seed++ {
		for _, ccr := range []float64{10, 0.1} {
			g := testRandomSPG(t, seed, 30, ccr)
			for _, T := range []float64{1, 0.1} {
				inst := Instance{Graph: g, Platform: pl, Period: T}
				for _, h := range All(seed) {
					sol, err := h.Solve(inst)
					if err != nil {
						continue
					}
					if sol.Result.MaxCycleTime > T*(1+1e-9) {
						t.Errorf("seed %d %s T=%g: cycle %.9g", seed, h.Name(), T, sol.Result.MaxCycleTime)
					}
					if _, err := mapping.Evaluate(g, pl, sol.Mapping, T); err != nil {
						t.Errorf("seed %d %s: invalid solution escaped: %v", seed, h.Name(), err)
					}
				}
			}
		}
	}
}
