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

// Decompose builds the series-parallel decomposition tree of the graph using
// the classical Valdes-Tarjan-Lawler reduction: interior vertices with
// in-degree 1 and out-degree 1 are series-reduced and parallel edges are
// merged, until a single source-to-sink edge remains. It returns
// ErrNotSeriesParallel if the reduction gets stuck, which happens exactly
// when the DAG is not two-terminal series-parallel.
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

	edges := make([]*reduceEdge, 0, g.M())
	out := make([]map[*reduceEdge]bool, n)
	in := make([]map[*reduceEdge]bool, n)
	for i := 0; i < n; i++ {
		out[i] = make(map[*reduceEdge]bool)
		in[i] = make(map[*reduceEdge]bool)
	}
	for ei, e := range g.Edges {
		re := &reduceEdge{src: e.Src, dst: e.Dst,
			tree: &DecompNode{Kind: DecompLeaf, Edge: ei, Src: e.Src, Dst: e.Dst}}
		edges = append(edges, re)
		out[e.Src][re] = true
		in[e.Dst][re] = true
	}

	// Repeatedly apply parallel then series reductions until fixpoint.
	alive := len(edges)
	for {
		changed := false
		// Parallel reduction: merge duplicate (src,dst) pairs.
		for v := 0; v < n; v++ {
			byDst := make(map[int]*reduceEdge)
			for re := range out[v] {
				if re.dead {
					delete(out[v], re)
					continue
				}
				if prev, ok := byDst[re.dst]; ok {
					prev.tree = &DecompNode{Kind: DecompParallel,
						Left: prev.tree, Right: re.tree, Src: v, Dst: re.dst}
					re.dead = true
					delete(out[v], re)
					delete(in[re.dst], re)
					alive--
					changed = true
				} else {
					byDst[re.dst] = re
				}
			}
		}
		// Series reduction: interior vertex with single in and single out edge.
		for v := 0; v < n; v++ {
			if v == source || v == sink {
				continue
			}
			if len(in[v]) != 1 || len(out[v]) != 1 {
				continue
			}
			var e1, e2 *reduceEdge
			for re := range in[v] {
				e1 = re
			}
			for re := range out[v] {
				e2 = re
			}
			merged := &reduceEdge{src: e1.src, dst: e2.dst,
				tree: &DecompNode{Kind: DecompSeries, Left: e1.tree, Right: e2.tree,
					Src: e1.src, Dst: e2.dst}}
			e1.dead = true
			e2.dead = true
			delete(out[e1.src], e1)
			delete(in[v], e1)
			delete(out[v], e2)
			delete(in[e2.dst], e2)
			out[merged.src][merged] = true
			in[merged.dst][merged] = true
			alive--
			changed = true
		}
		if !changed {
			break
		}
	}
	if alive != 1 || len(out[source]) != 1 {
		return nil, ErrNotSeriesParallel
	}
	for re := range out[source] {
		if re.dst != sink {
			return nil, ErrNotSeriesParallel
		}
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
