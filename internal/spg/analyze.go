package spg

import (
	"math"
	"sort"
)

// Reachability is a precomputed transitive-closure of an SPG, used by the
// DAG-partition validity checks and by the dynamic programming heuristics.
// For the graph sizes of the paper (n <= ~150) a dense bitset representation
// is both simple and fast.
type Reachability struct {
	n     int
	words int
	bits  []uint64 // row i occupies bits[i*words : (i+1)*words]
}

// NewReachability computes the transitive closure l* of the graph: the
// returned structure answers Reaches(i, j) = "is there a dependence path from
// stage i to stage j" (false for i == j).
func NewReachability(g *Graph) *Reachability {
	n := g.N()
	words := (n + 63) / 64
	r := &Reachability{n: n, words: words, bits: make([]uint64, n*words)}
	order, err := g.TopoOrder()
	if err != nil {
		// Callers are expected to validate graphs first; a cyclic graph has
		// no meaningful closure, so return an empty relation.
		return r
	}
	// Process in reverse topological order: row(i) = union over successors j
	// of ({j} | row(j)).
	for idx := len(order) - 1; idx >= 0; idx-- {
		i := order[idx]
		ri := r.row(i)
		for _, e := range g.OutEdges(i) {
			j := g.Edges[e].Dst
			ri[j/64] |= 1 << uint(j%64)
			rj := r.row(j)
			for w := range ri {
				ri[w] |= rj[w]
			}
		}
	}
	return r
}

func (r *Reachability) row(i int) []uint64 {
	return r.bits[i*r.words : (i+1)*r.words]
}

// Reaches reports whether there is a dependence path from stage i to stage j.
func (r *Reachability) Reaches(i, j int) bool {
	if i == j {
		return false
	}
	return r.bits[i*r.words+j/64]&(1<<uint(j%64)) != 0
}

// Levels groups stage indices by elevation: Levels(g)[y-1] lists the stages
// with label y, sorted by increasing x. In an SPG, stages of equal elevation
// are pairwise comparable, so each level is a dependence chain.
func Levels(g *Graph) [][]int {
	ymax := g.Elevation()
	levels := make([][]int, ymax)
	for i, s := range g.Stages {
		levels[s.Label.Y-1] = append(levels[s.Label.Y-1], i)
	}
	for y := range levels {
		lv := levels[y]
		sort.Slice(lv, func(a, b int) bool {
			return g.Stages[lv[a]].Label.X < g.Stages[lv[b]].Label.X
		})
	}
	return levels
}

// StageGrid returns a Depth() x Elevation() matrix m with m[x-1][y-1] = stage
// index at label (x, y), or -1 when no stage has that label. DPA2D maps the
// SPG onto this virtual grid before cutting it into CMP columns and rows.
func StageGrid(g *Graph) [][]int {
	xmax, ymax := g.Depth(), g.Elevation()
	grid := make([][]int, xmax)
	cells := make([]int, xmax*ymax)
	for i := range cells {
		cells[i] = -1
	}
	for x := 0; x < xmax; x++ {
		grid[x], cells = cells[:ymax], cells[ymax:]
	}
	for i, s := range g.Stages {
		grid[s.Label.X-1][s.Label.Y-1] = i
	}
	return grid
}

// CCR returns the computation-to-communication ratio of the graph: the sum of
// stage weights divided by the sum of edge volumes. It returns +Inf when the
// graph has no communication volume.
func CCR(g *Graph) float64 {
	v := g.TotalVolume()
	if v == 0 {
		return inf()
	}
	return g.TotalWork() / v
}

// ScaleToCCR multiplies every edge volume by a common factor so that the
// graph's CCR becomes target, as done in Section 6.1.1 of the paper to set
// the StreamIt CCRs to 10, 1 and 0.1. It is a no-op when the graph carries no
// communication at all.
func ScaleToCCR(g *Graph, target float64) {
	v := g.TotalVolume()
	if v == 0 || target <= 0 {
		return
	}
	factor := g.TotalWork() / (target * v)
	for i := range g.Edges {
		g.Edges[i].Volume *= factor
	}
}

func inf() float64 { return math.Inf(1) }
