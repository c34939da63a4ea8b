package spg

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// DecompKind identifies the constructor of a node of an SP decomposition
// tree.
type DecompKind int

const (
	// DecompLeaf is a single original edge.
	DecompLeaf DecompKind = iota
	// DecompSeries is a series composition of its two children.
	DecompSeries
	// DecompParallel is a parallel composition of its two children.
	DecompParallel
)

func (k DecompKind) String() string {
	switch k {
	case DecompLeaf:
		return "leaf"
	case DecompSeries:
		return "series"
	case DecompParallel:
		return "parallel"
	default:
		return fmt.Sprintf("DecompKind(%d)", int(k))
	}
}

// DecompNode is a node of the binary series-parallel decomposition tree of an
// SPG, produced by Decompose. Leaves reference original edges; internal nodes
// record the composition used.
type DecompNode struct {
	Kind  DecompKind
	Edge  int // index into Graph.Edges, for leaves
	Left  *DecompNode
	Right *DecompNode
	Src   int // terminal pair of the sub-SPG represented by this node
	Dst   int
}

// Leaves returns the number of leaf nodes under d.
func (d *DecompNode) Leaves() int {
	if d == nil {
		return 0
	}
	if d.Kind == DecompLeaf {
		return 1
	}
	return d.Left.Leaves() + d.Right.Leaves()
}

// downsets counts the downsets of the sub-SPG under d that hold its source
// and not its sink. A leaf edge has one, {source}. A series node adds its
// children's counts, split by whether the middle terminal is in; a parallel
// node multiplies them, since the two interiors are independent. Counts
// saturate at math.MaxUint64.
func (d *DecompNode) downsets() uint64 {
	switch d.Kind {
	case DecompLeaf:
		return 1
	case DecompSeries:
		return satAdd(d.Left.downsets(), d.Right.downsets())
	default:
		hi, lo := bits.Mul64(d.Left.downsets(), d.Right.downsets())
		if hi != 0 {
			return math.MaxUint64
		}
		return lo
	}
}

func satAdd(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return math.MaxUint64
	}
	return s
}

// ErrNotSeriesParallel is returned by Decompose when the input DAG cannot be
// reduced to a single source-sink edge by series and parallel reductions.
var ErrNotSeriesParallel = errors.New("spg: graph is not two-terminal series-parallel")

type reduceEdge struct {
	src, dst int
	tree     *DecompNode
	dead     bool
}

// reducer is the state of one Decompose run. Edges and tree nodes live in
// slabs sized for the whole run: every reduction kills an edge and a series
// reduction creates one, so at most 2m-1 of each ever exist. Each vertex's
// incident edges are a dense list of edge indices in creation order; a list
// keeps dead entries until it is walked or needs room, while inDeg and
// outDeg count its live ones.
type reducer struct {
	edges         []reduceEdge
	nodes         []DecompNode
	out, in       [][]int32
	outDeg, inDeg []int
	firstByDst    []int32 // parallel pass: first live out-edge per destination, -1 if none
}

// node appends a tree node to the slab and returns it; the slab never
// grows past its capacity, so the pointer stays valid.
func (r *reducer) node(n DecompNode) *DecompNode {
	r.nodes = append(r.nodes, n)
	return &r.nodes[len(r.nodes)-1]
}

// live returns the first live edge of list, or -1.
func (r *reducer) live(list []int32) int32 {
	for _, e := range list {
		if !r.edges[e].dead {
			return e
		}
	}
	return -1
}

// push appends edge e to list, first dropping dead entries when the list is
// full. A vertex's live degree never exceeds its original degree (parallel
// reductions lower it, series ones keep it), so a compacted list has room.
func (r *reducer) push(list []int32, e int32) []int32 {
	if len(list) == cap(list) {
		kept := list[:0]
		for _, x := range list {
			if !r.edges[x].dead {
				kept = append(kept, x)
			}
		}
		list = kept
	}
	return append(list, e)
}

// Decompose builds the series-parallel decomposition tree of the graph using
// the classical Valdes-Tarjan-Lawler reduction: interior vertices with
// in-degree 1 and out-degree 1 are series-reduced and parallel edges are
// merged, until a single source-to-sink edge remains. It returns
// ErrNotSeriesParallel if the reduction gets stuck, which happens exactly
// when the DAG is not two-terminal series-parallel. Incident edges are
// walked in edge order, so the tree — including the child order of every
// parallel node — is a function of the graph alone.
func Decompose(g *Graph) (*DecompNode, error) {
	n := g.N()
	if n < 2 {
		return nil, errors.New("spg: cannot decompose graph with fewer than two stages")
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	sink := g.Sink()
	if sink < 0 {
		return nil, ErrNotSeriesParallel
	}
	source := g.Source()

	m := len(g.Edges)
	r := &reducer{
		edges:      make([]reduceEdge, m, 2*m),
		nodes:      make([]DecompNode, m, 2*m),
		out:        make([][]int32, n),
		in:         make([][]int32, n),
		outDeg:     make([]int, n),
		inDeg:      make([]int, n),
		firstByDst: make([]int32, n),
	}
	for _, e := range g.Edges {
		r.outDeg[e.Src]++
		r.inDeg[e.Dst]++
	}
	// Each vertex's lists are windows of one flat block, capped at its
	// degree so an append can never spill into the next vertex's window.
	flat := make([]int32, 2*m)
	off := 0
	for v := 0; v < n; v++ {
		r.out[v] = flat[off : off : off+r.outDeg[v]]
		off += r.outDeg[v]
		r.in[v] = flat[off : off : off+r.inDeg[v]]
		off += r.inDeg[v]
		r.firstByDst[v] = -1
	}
	for ei, e := range g.Edges {
		r.nodes[ei] = DecompNode{Kind: DecompLeaf, Edge: ei, Src: e.Src, Dst: e.Dst}
		r.edges[ei] = reduceEdge{src: e.Src, dst: e.Dst, tree: &r.nodes[ei]}
		r.out[e.Src] = append(r.out[e.Src], int32(ei))
		r.in[e.Dst] = append(r.in[e.Dst], int32(ei))
	}

	// Repeatedly apply parallel then series reductions until fixpoint.
	alive := m
	for {
		changed := false
		// Parallel reduction: merge each later out-edge into the first live
		// one with the same destination, compacting the list as it goes.
		for v := 0; v < n; v++ {
			kept := r.out[v][:0]
			for _, ei := range r.out[v] {
				re := &r.edges[ei]
				if re.dead {
					continue
				}
				if first := r.firstByDst[re.dst]; first >= 0 {
					prev := &r.edges[first]
					prev.tree = r.node(DecompNode{Kind: DecompParallel,
						Left: prev.tree, Right: re.tree, Src: v, Dst: re.dst})
					re.dead = true
					r.outDeg[v]--
					r.inDeg[re.dst]--
					alive--
					changed = true
					continue
				}
				r.firstByDst[re.dst] = ei
				kept = append(kept, ei)
			}
			r.out[v] = kept
			for _, ei := range kept {
				r.firstByDst[r.edges[ei].dst] = -1
			}
		}
		// Series reduction: interior vertex with single in and single out edge.
		for v := 0; v < n; v++ {
			if v == source || v == sink || r.inDeg[v] != 1 || r.outDeg[v] != 1 {
				continue
			}
			i1, i2 := r.live(r.in[v]), r.live(r.out[v])
			e1, e2 := &r.edges[i1], &r.edges[i2]
			src, dst := e1.src, e2.dst
			tree := r.node(DecompNode{Kind: DecompSeries, Left: e1.tree, Right: e2.tree,
				Src: src, Dst: dst})
			e1.dead, e2.dead = true, true
			r.edges = append(r.edges, reduceEdge{src: src, dst: dst, tree: tree})
			merged := int32(len(r.edges) - 1)
			r.in[v], r.out[v] = r.in[v][:0], r.out[v][:0]
			r.inDeg[v], r.outDeg[v] = 0, 0
			r.out[src] = r.push(r.out[src], merged)
			r.in[dst] = r.push(r.in[dst], merged)
			alive--
			changed = true
		}
		if !changed {
			break
		}
	}
	if alive != 1 || r.outDeg[source] != 1 {
		return nil, ErrNotSeriesParallel
	}
	if re := &r.edges[r.live(r.out[source])]; re.dst == sink {
		return re.tree, nil
	}
	return nil, ErrNotSeriesParallel
}

// IsSeriesParallel reports whether the graph is a two-terminal
// series-parallel DAG.
func IsSeriesParallel(g *Graph) bool {
	_, err := Decompose(g)
	return err == nil
}
