// Package spg implements two-terminal series-parallel graphs (SPGs), the
// application model of Benoit, Melhem, Renaud-Goud and Robert, "Energy-aware
// mappings of series-parallel workflows onto chip multiprocessors" (ICPP 2011).
//
// An SPG is built from the primitive two-node graph by series composition
// (merging the sink of the first graph with the source of the second) and
// parallel composition (merging the two sources and the two sinks). Every
// stage carries a computation requirement and every edge a communication
// volume. Stages are labelled with 2D coordinates (x, y) following the
// recursive scheme of Section 3.1 of the paper; the maximum y value is the
// graph's elevation, its maximal degree of parallelism.
package spg

import (
	"errors"
	"fmt"
	"sort"
)

// Label is the 2D coordinate assigned to a stage by the recursive SPG
// construction. X grows along the series direction (depth), Y along the
// parallel direction (elevation).
type Label struct {
	X int
	Y int
}

// Stage is one node of the workflow. Weight is the computation requirement
// w_i of the paper, expressed in Gcycles (so that Weight/speed-in-GHz is a
// time in seconds). Name is optional and used only for reporting.
type Stage struct {
	Weight float64
	Label  Label
	Name   string
}

// Edge is one precedence constraint L_{i,j}. Volume is the communication
// volume delta_{i,j} in GB. Parallel edges between the same pair of stages are
// permitted (they arise from parallel composition of primitive SPGs).
type Edge struct {
	Src    int
	Dst    int
	Volume float64
}

// Graph is a series-parallel workflow. The source is always stage 0 and the
// sink is identified by Sink(). Graphs built through Primitive, Series and
// Parallel are series-parallel by construction; arbitrary DAGs can also be
// represented (for tests and counter-examples) but are rejected by Validate.
type Graph struct {
	Stages []Stage
	Edges  []Edge

	// Lazily built adjacency caches; invalidated by structural mutation.
	out [][]int // out[i] = indices into Edges leaving stage i
	in  [][]int // in[i] = indices into Edges entering stage i
}

// Primitive returns the smallest SPG: two stages connected by one edge, with
// the given stage weights and edge volume. The source is labelled (1,1) and
// the sink (2,1).
func Primitive(wSrc, wDst, volume float64) *Graph {
	return &Graph{
		Stages: []Stage{
			{Weight: wSrc, Label: Label{1, 1}},
			{Weight: wDst, Label: Label{2, 1}},
		},
		Edges: []Edge{{Src: 0, Dst: 1, Volume: volume}},
	}
}

// Chain returns a linear chain with the given stage weights; volumes[i] is
// the communication volume between stage i and stage i+1. len(volumes) must
// be len(weights)-1 and len(weights) must be at least 2.
func Chain(weights []float64, volumes []float64) (*Graph, error) {
	if len(weights) < 2 {
		return nil, errors.New("spg: chain needs at least two stages")
	}
	if len(volumes) != len(weights)-1 {
		return nil, fmt.Errorf("spg: chain with %d stages needs %d volumes, got %d",
			len(weights), len(weights)-1, len(volumes))
	}
	g := &Graph{}
	for i, w := range weights {
		g.Stages = append(g.Stages, Stage{Weight: w, Label: Label{X: i + 1, Y: 1}})
	}
	for i, v := range volumes {
		g.Edges = append(g.Edges, Edge{Src: i, Dst: i + 1, Volume: v})
	}
	return g, nil
}

// N returns the number of stages.
func (g *Graph) N() int { return len(g.Stages) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Source returns the index of the source stage (always 0 for composed SPGs).
func (g *Graph) Source() int { return 0 }

// Sink returns the index of the unique stage without successors, or -1 if
// there is no unique sink.
func (g *Graph) Sink() int {
	g.buildAdj()
	sink := -1
	for i := range g.Stages {
		if len(g.out[i]) == 0 {
			if sink >= 0 {
				return -1
			}
			sink = i
		}
	}
	return sink
}

// invalidate drops adjacency caches after a structural mutation.
func (g *Graph) invalidate() {
	g.out = nil
	g.in = nil
}

func (g *Graph) buildAdj() {
	if g.out != nil {
		return
	}
	g.out = make([][]int, len(g.Stages))
	g.in = make([][]int, len(g.Stages))
	for e, edge := range g.Edges {
		g.out[edge.Src] = append(g.out[edge.Src], e)
		g.in[edge.Dst] = append(g.in[edge.Dst], e)
	}
}

// OutEdges returns the indices into g.Edges of the edges leaving stage i.
// The returned slice must not be modified.
func (g *Graph) OutEdges(i int) []int {
	g.buildAdj()
	return g.out[i]
}

// InEdges returns the indices into g.Edges of the edges entering stage i.
// The returned slice must not be modified.
func (g *Graph) InEdges(i int) []int {
	g.buildAdj()
	return g.in[i]
}

// Successors returns the distinct successor stages of stage i in ascending
// order.
func (g *Graph) Successors(i int) []int {
	g.buildAdj()
	return distinctEndpoints(g.Edges, g.out[i], false)
}

// Predecessors returns the distinct predecessor stages of stage i in
// ascending order.
func (g *Graph) Predecessors(i int) []int {
	g.buildAdj()
	return distinctEndpoints(g.Edges, g.in[i], true)
}

func distinctEndpoints(edges []Edge, idx []int, src bool) []int {
	if len(idx) == 0 {
		return nil
	}
	res := make([]int, 0, len(idx))
	for _, e := range idx {
		v := edges[e].Dst
		if src {
			v = edges[e].Src
		}
		res = append(res, v)
	}
	sort.Ints(res)
	out := res[:1]
	for _, v := range res[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Elevation returns y_max, the maximum y label over all stages: the maximal
// degree of parallelism of the SPG.
func (g *Graph) Elevation() int {
	ymax := 0
	for _, s := range g.Stages {
		if s.Label.Y > ymax {
			ymax = s.Label.Y
		}
	}
	return ymax
}

// Depth returns x_max, the maximum x label over all stages. For a composed
// SPG this is the x coordinate of the sink.
func (g *Graph) Depth() int {
	xmax := 0
	for _, s := range g.Stages {
		if s.Label.X > xmax {
			xmax = s.Label.X
		}
	}
	return xmax
}

// TotalWork returns the sum of all stage weights.
func (g *Graph) TotalWork() float64 {
	var t float64
	for _, s := range g.Stages {
		t += s.Weight
	}
	return t
}

// TotalVolume returns the sum of all edge volumes.
func (g *Graph) TotalVolume() float64 {
	var t float64
	for _, e := range g.Edges {
		t += e.Volume
	}
	return t
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Stages: append([]Stage(nil), g.Stages...),
		Edges:  append([]Edge(nil), g.Edges...),
	}
	return ng
}

// TopoOrder returns a topological order of the stages, or an error if the
// graph contains a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	g.buildAdj()
	indeg := make([]int, len(g.Stages))
	for _, e := range g.Edges {
		indeg[e.Dst]++
	}
	queue := make([]int, 0, len(g.Stages))
	for i := range g.Stages {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, len(g.Stages))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, e := range g.out[v] {
			d := g.Edges[e].Dst
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(order) != len(g.Stages) {
		return nil, errors.New("spg: graph contains a cycle")
	}
	return order, nil
}

// String returns a compact human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("SPG{n=%d, m=%d, xmax=%d, ymax=%d}", g.N(), g.M(), g.Depth(), g.Elevation())
}

// Validate checks the structural invariants guaranteed by SPG composition:
// acyclicity, a unique source labelled (1,1), a unique sink with y=1, strictly
// increasing x along every edge, and unique labels. It returns the first
// violation found.
func (g *Graph) Validate() error {
	if g.N() < 2 {
		return errors.New("spg: graph needs at least two stages")
	}
	// Endpoints first: TopoOrder indexes adjacency by them.
	for e, edge := range g.Edges {
		if edge.Src < 0 || edge.Src >= g.N() || edge.Dst < 0 || edge.Dst >= g.N() {
			return fmt.Errorf("spg: edge %d endpoints out of range", e)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	g.buildAdj()
	for i := range g.Stages {
		if i != 0 && len(g.in[i]) == 0 {
			return fmt.Errorf("spg: stage %d is a second source", i)
		}
	}
	if len(g.in[0]) != 0 {
		return errors.New("spg: stage 0 is not a source")
	}
	sink := g.Sink()
	if sink < 0 {
		return errors.New("spg: no unique sink")
	}
	if g.Stages[0].Label != (Label{1, 1}) {
		return fmt.Errorf("spg: source label %v, want (1,1)", g.Stages[0].Label)
	}
	if g.Stages[sink].Label.Y != 1 {
		return fmt.Errorf("spg: sink label %v, want y=1", g.Stages[sink].Label)
	}
	seen := make(map[Label]int, g.N())
	for i, s := range g.Stages {
		if s.Weight < 0 {
			return fmt.Errorf("spg: stage %d has negative weight", i)
		}
		if !(s.Weight >= 0) {
			return fmt.Errorf("spg: stage %d has NaN weight", i)
		}
		if s.Label.X < 1 || s.Label.Y < 1 {
			return fmt.Errorf("spg: stage %d has invalid label %v", i, s.Label)
		}
		if j, dup := seen[s.Label]; dup {
			return fmt.Errorf("spg: stages %d and %d share label %v", j, i, s.Label)
		}
		seen[s.Label] = i
	}
	for e, edge := range g.Edges {
		if edge.Volume < 0 {
			return fmt.Errorf("spg: edge %d has negative volume", e)
		}
		if !(edge.Volume >= 0) {
			return fmt.Errorf("spg: edge %d has NaN volume", e)
		}
		if g.Stages[edge.Src].Label.X >= g.Stages[edge.Dst].Label.X {
			return fmt.Errorf("spg: edge %d (%d->%d) does not increase x", e, edge.Src, edge.Dst)
		}
	}
	return nil
}
