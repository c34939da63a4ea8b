package core

import (
	"math"

	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// DPA2D is the two-dimensional dynamic programming heuristic of Section 5.3.
// The SPG is first laid onto its x_max x y_max label grid; an outer DP cuts
// the x levels into consecutive bands, one per CMP column, and an inner DP
// cuts the rows of each band into consecutive groups, one per core of that
// column (empty cores are allowed). Communications leave a column
// horizontally on the row of their source core, are forwarded on that row
// through intermediate columns, and descend or climb vertically in the
// destination column — i.e. XY routing, which is what the final mapping uses.
//
// The outer DP carries, for each state, the outgoing-communication
// distribution D of its best solution only (the paper's greedy choice), so
// DPA2D is a heuristic even though both nested programs are exact given D.
type DPA2D struct{}

// NewDPA2D returns the DPA2D heuristic.
func NewDPA2D() *DPA2D { return &DPA2D{} }

// Name implements Heuristic.
func (h *DPA2D) Name() string { return "DPA2D" }

// Solve implements Heuristic.
func (h *DPA2D) Solve(inst Instance) (*Solution, error) {
	inst = inst.Analyzed()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	plan, err := solve2D(inst.Analysis, inst.Platform, inst.Period, inst.Scratch)
	if err != nil {
		return nil, err
	}
	m := plan.buildMapping(inst.Graph, inst.Platform, inst.Period)
	if m == nil {
		return nil, ErrNoSolution
	}
	return finish(h.Name(), inst, m)
}

// distEntry is one element of the distribution D of Section 5.3: a
// communication leaving a column on physical row `row` (0-based), carried by
// graph edge `edge`.
type distEntry struct {
	edge int
	row  int
}

// plan2D is the reconstructed solution of the nested DP: bandEnd[v] is the
// last x level (1-based) of the band mapped onto CMP column v, and
// rowCuts[v][u] is the cumulative row cut of that column (core u, 1-based,
// hosts label rows rowCuts[v][u-1]+1 .. rowCuts[v][u]).
type plan2D struct {
	bandEnd []int
	rowCuts [][]int
	energy  float64
}

// buildMapping turns the plan into a concrete mapping on pl with XY routing
// (paths are left implicit: the evaluator defaults to XY, which matches the
// DP's communication accounting link for link).
func (p *plan2D) buildMapping(g *spg.Graph, pl *platform.Platform, T float64) *mapping.Mapping {
	m := mapping.New(g.N(), pl)
	prevEnd := 0
	for v, end := range p.bandEnd {
		cuts := p.rowCuts[v]
		for i, s := range g.Stages {
			if s.Label.X <= prevEnd || s.Label.X > end {
				continue
			}
			u := rowCore(cuts, s.Label.Y)
			m.Alloc[i] = platform.Core{U: u, V: v}
		}
		prevEnd = end
	}
	if !m.DowngradeSpeeds(g, pl, T) {
		return nil
	}
	return m
}

// rowCore returns the 0-based core row hosting label row y under cuts.
func rowCore(cuts []int, y int) int {
	for u := 1; u < len(cuts); u++ {
		if y <= cuts[u] {
			return u - 1
		}
	}
	return len(cuts) - 2 // defensive; y <= ymax = cuts[last]
}

// engine2D holds the state shared by the outer and inner dynamic programs.
// The period-independent graph analysis (prefix sums, topological order,
// band contexts) comes from the shared spg.Analysis; the engine owns only
// the capacities and its private rectangle-energy tables.
type engine2D struct {
	g  *spg.Graph
	an *spg.Analysis
	pl *platform.Platform
	T  float64

	xmax, ymax int

	wPrefix [][]float64 // (xmax+1) x (ymax+1) weight prefix sums over labels
	cPrefix [][]int     // same for stage counts

	capL    float64 // link capacity per period, GB
	maxWork float64 // T * s_max, the largest per-core work

	// ecal caches, per band key m1*(xmax+1)+m2, the per-rectangle core
	// energy: index r1*(ymax+2)+r2 for label rows [r1..r2]; NaN marks an
	// uncomputed entry, +Inf an infeasible or non-convex rectangle.
	ecal [][]float64
}

func newEngine2D(an *spg.Analysis, pl *platform.Platform, T float64) *engine2D {
	xmax, ymax := an.Depth(), an.Elevation()
	e := &engine2D{
		g: an.Graph(), an: an, pl: pl, T: T,
		xmax: xmax, ymax: ymax,
		capL:    pl.LinkCapacity(T),
		maxWork: T * pl.MaxSpeed(),
		ecal:    make([][]float64, (xmax+1)*(xmax+1)),
	}
	e.wPrefix, e.cPrefix = an.LabelPrefixSums()
	return e
}

// rectWork returns the total weight of the stages with m1 <= x <= m2 and
// r1 <= y <= r2 (all 1-based, inclusive).
func (e *engine2D) rectWork(m1, m2, r1, r2 int) float64 {
	return e.wPrefix[m2][r2] - e.wPrefix[m1-1][r2] - e.wPrefix[m2][r1-1] + e.wPrefix[m1-1][r1-1]
}

func (e *engine2D) rectCount(m1, m2, r1, r2 int) int {
	return e.cPrefix[m2][r2] - e.cPrefix[m1-1][r2] - e.cPrefix[m2][r1-1] + e.cPrefix[m1-1][r1-1]
}

// band returns the (shared, memoized) analysis context of the band of x
// levels [m1..m2].
func (e *engine2D) band(m1, m2 int) *spg.Band {
	return e.an.Band(m1, m2)
}

// bandEcal returns the engine's rectangle-energy cache for band b, carved
// from sc and NaN-filled on first use.
func (e *engine2D) bandEcal(b *spg.Band, sc *Scratch) []float64 {
	key := b.M1*(e.xmax+1) + b.M2
	if ec := e.ecal[key]; ec != nil {
		return ec
	}
	ec := sc.F64((e.ymax + 2) * (e.ymax + 2))
	for i := range ec {
		ec[i] = math.NaN()
	}
	e.ecal[key] = ec
	return ec
}

// ecalRect returns the optimal core energy for executing the band stages
// with rows in [r1..r2] on one core: leakage plus dynamic energy at the
// slowest feasible speed; 0 for an empty rectangle; +Inf when the period
// cannot be met or the rectangle is not convex (Section 5.3 sets such
// entries to +Inf). ec is the band's cache from bandEcal.
func (e *engine2D) ecalRect(b *spg.Band, ec []float64, r1, r2 int) float64 {
	idx := r1*(e.ymax+2) + r2
	if v := ec[idx]; !math.IsNaN(v) {
		return v
	}
	v := e.computeEcal(b, r1, r2)
	ec[idx] = v
	return v
}

func (e *engine2D) computeEcal(b *spg.Band, r1, r2 int) float64 {
	if e.rectCount(b.M1, b.M2, r1, r2) == 0 {
		return 0
	}
	work := e.rectWork(b.M1, b.M2, r1, r2)
	_, sIdx, ok := e.pl.MinFeasibleSpeed(work, e.T)
	if !ok {
		return math.Inf(1)
	}
	// Convexity is graph-only, so the verdict is memoized in the shared band
	// shape rather than recomputed per period.
	if !b.RowsConvex(r1, r2) {
		return math.Inf(1)
	}
	return e.pl.CoreEnergy(work, e.T, sIdx)
}

// innerResult is the outcome of the inner (column) DP for one band.
type innerResult struct {
	energy float64
	cuts   []int // cuts[u], u = 0..P: rows (cuts[u-1]..cuts[u]] go to core u-1
}

// inner runs the column DP of Section 5.3 for band b given the arriving
// distribution D' and returns the optimal row partition. Arrivals
// terminating in the band climb or descend from their arrival row to the
// core of their destination stage; arrivals destined beyond the band are
// forwarded horizontally and do not touch vertical links.
func (e *engine2D) inner(b *spg.Band, arrivals []distEntry, sc *Scratch) (innerResult, bool) {
	P := e.pl.P
	ymax := e.ymax
	ec := e.bandEcal(b, sc)

	// 2D prefix sums of terminating arrival volume by (arrival row, dest y):
	// t2d[r][y] = volume with row < r and dest y <= y. Arena rows come back
	// dirty, so the zero fill the old make() provided is now explicit.
	t2d := sc.F64Rows(P+1, ymax+1)
	for r := range t2d {
		row := t2d[r]
		for y := range row {
			row[y] = 0
		}
	}
	for _, d := range arrivals {
		edge := e.g.Edges[d.edge]
		dx := e.g.Stages[edge.Dst].Label.X
		if dx > b.M2 {
			continue // forwarded through this column
		}
		dy := e.g.Stages[edge.Dst].Label.Y
		t2d[d.row+1][dy] += edge.Volume
	}
	for r := 1; r <= P; r++ {
		for y := 1; y <= ymax; y++ {
			t2d[r][y] += t2d[r][y-1]
		}
		for y := 0; y <= ymax; y++ {
			t2d[r][y] += t2d[r-1][y]
		}
	}

	// ever returns the vertical-link cost of the boundary below core u
	// (1-based) when rows <= gp are on cores < u. It returns +Inf when a
	// direction overflows the link capacity.
	ever := func(gp, u int) float64 {
		if u == 1 {
			return 0
		}
		// Link between cores u-1 and u (physical rows u-2 and u-1).
		// Upward crossings: arrivals at rows <= u-2 with destination row
		// above the cut (y > gp). Downward: arrivals at rows >= u-1 with
		// destination at or below the cut (y <= gp).
		up := b.UpInt[gp] + t2d[u-1][ymax] - t2d[u-1][gp]
		down := b.DownInt[gp] + t2d[P][gp] - t2d[u-1][gp]
		if up > e.capL*(1+1e-12) || down > e.capL*(1+1e-12) {
			return math.Inf(1)
		}
		return (up + down) * e.pl.EnergyPerGB
	}

	dp := sc.F64Rows(ymax+1, P+1)
	par := sc.IntRows(ymax+1, P+1)
	for g := 0; g <= ymax; g++ {
		for u := 0; u <= P; u++ {
			dp[g][u] = math.Inf(1)
			par[g][u] = -1
		}
	}
	dp[0][0] = 0
	for u := 1; u <= P; u++ {
		for g := 0; g <= ymax; g++ {
			// g' descends from g (empty rectangle) to 0; the rectangle work
			// grows monotonically, so stop once it exceeds the core budget.
			for gp := g; gp >= 0; gp-- {
				if gp < g && e.rectWork(b.M1, b.M2, gp+1, g) > e.maxWork {
					break
				}
				base := dp[gp][u-1]
				if math.IsInf(base, 1) {
					continue
				}
				var rectE float64
				if gp < g {
					rectE = e.ecalRect(b, ec, gp+1, g)
					if math.IsInf(rectE, 1) {
						continue
					}
				}
				vertE := ever(gp, u)
				if math.IsInf(vertE, 1) {
					continue
				}
				if cand := base + rectE + vertE; cand < dp[g][u] {
					dp[g][u] = cand
					par[g][u] = gp
				}
			}
		}
	}
	if math.IsInf(dp[ymax][P], 1) {
		return innerResult{}, false
	}
	cuts := sc.Ints(P + 1)
	cuts[P] = ymax
	for u := P; u >= 1; u-- {
		cuts[u-1] = par[cuts[u]][u]
	}
	return innerResult{energy: dp[ymax][P], cuts: cuts}, true
}

// outDistribution builds the outgoing distribution D of a band solved with
// the given cuts: forwarded arrivals keep their row; new outgoing
// communications are emitted on the row of the core hosting their source.
// The result is exactly sized (counted first, filled by index) so the arena
// never over-allocates for append growth.
func (e *engine2D) outDistribution(b *spg.Band, arrivals []distEntry, cuts []int, sc *Scratch) []distEntry {
	fwd := 0
	for _, d := range arrivals {
		if e.g.Stages[e.g.Edges[d.edge].Dst].Label.X > b.M2 {
			fwd++
		}
	}
	out := sc.distEntries(fwd + len(b.Outgoing))
	i := 0
	for _, d := range arrivals {
		if e.g.Stages[e.g.Edges[d.edge].Dst].Label.X > b.M2 {
			out[i] = d
			i++
		}
	}
	for _, ei := range b.Outgoing {
		y := e.g.Stages[e.g.Edges[ei].Src].Label.Y
		out[i] = distEntry{edge: ei, row: rowCore(cuts, y)}
		i++
	}
	return out
}

// solve2D runs the nested DP on the label grid of an's graph against pl and
// returns the best plan over all numbers of used columns. Tables are carved
// from sc (nil allocates normally).
func solve2D(an *spg.Analysis, pl *platform.Platform, T float64, sc *Scratch) (*plan2D, error) {
	e := newEngine2D(an, pl, T)
	xmax := e.xmax
	vmax := pl.Q
	if xmax < vmax {
		vmax = xmax
	}
	colBudget := float64(pl.P) * e.maxWork

	type outerState struct {
		energy float64
		prevM  int
		cuts   []int
		dist   []distEntry
	}
	newRow := func() []outerState {
		row := make([]outerState, xmax+1)
		for i := range row {
			row[i].energy = math.Inf(1)
			row[i].prevM = -1
		}
		return row
	}

	rows := make([][]outerState, vmax+1)
	rows[0] = newRow() // unused; bands are 1-based in v

	// v = 1: a single band of levels [1..m]. Overweight bands are skipped
	// per-m (wider bands only grow heavier).
	rows[1] = newRow()
	for m := 1; m <= xmax; m++ {
		if e.rectWork(1, m, 1, e.ymax) > colBudget {
			continue
		}
		b := e.band(1, m)
		ir, ok := e.inner(b, nil, sc)
		if !ok {
			continue
		}
		rows[1][m] = outerState{
			energy: ir.energy,
			prevM:  0,
			cuts:   ir.cuts,
			dist:   e.outDistribution(b, nil, ir.cuts, sc),
		}
	}

	rowLoad := sc.F64(pl.P)
	for v := 2; v <= vmax; v++ {
		rows[v] = newRow()
		prevRow := rows[v-1]
		for m := v; m <= xmax; m++ {
			best := &rows[v][m]
			for mp := m - 1; mp >= v-1; mp-- {
				if e.rectWork(mp+1, m, 1, e.ymax) > colBudget {
					break
				}
				prev := &prevRow[mp]
				if math.IsInf(prev.energy, 1) {
					continue
				}
				// Horizontal crossing between columns v-1 and v: check the
				// per-row bandwidth and charge one hop per entry. The loads
				// accumulate into a dense per-row vector (rows are 0..P-1);
				// the overload check is a commutative any-exceeds, so the
				// scan order can't affect the verdict.
				for r := range rowLoad {
					rowLoad[r] = 0
				}
				var commE float64
				feasible := true
				for _, d := range prev.dist {
					vol := e.g.Edges[d.edge].Volume
					rowLoad[d.row] += vol
					commE += float64(vol * pl.EnergyPerGB)
				}
				for r := 0; r < pl.P; r++ {
					if rowLoad[r] > e.capL*(1+1e-12) {
						feasible = false
						break
					}
				}
				if !feasible {
					continue
				}
				b := e.band(mp+1, m)
				ir, ok := e.inner(b, prev.dist, sc)
				if !ok {
					continue
				}
				if cand := prev.energy + commE + ir.energy; cand < best.energy {
					best.energy = cand
					best.prevM = mp
					best.cuts = ir.cuts
				}
			}
			if best.prevM >= 0 {
				b := e.band(best.prevM+1, m)
				best.dist = e.outDistribution(b, prevRow[best.prevM].dist, best.cuts, sc)
			}
		}
	}

	bestV, bestE := -1, math.Inf(1)
	for v := 1; v <= vmax; v++ {
		if rows[v][xmax].energy < bestE {
			bestE = rows[v][xmax].energy
			bestV = v
		}
	}
	if bestV < 0 {
		return nil, ErrNoSolution
	}
	plan := &plan2D{
		bandEnd: make([]int, bestV),
		rowCuts: make([][]int, bestV),
		energy:  bestE,
	}
	m := xmax
	for v := bestV; v >= 1; v-- {
		st := rows[v][m]
		plan.bandEnd[v-1] = m
		plan.rowCuts[v-1] = st.cuts
		m = st.prevM
	}
	return plan, nil
}
