package spg

import "sync"

// Band is the analysis of one band of consecutive x levels [M1..M2] of an
// SPG, as consumed by the DPA2D nested dynamic program (Section 5.3): edge
// classification, per-row-boundary internal crossing volumes, and band-local
// ancestor/descendant elevation masks for rectangle convexity checks.
//
// A band splits into two halves with different sharing scope. The structural
// half (edge classification, node order, ancestor/descendant masks, rectangle
// convexity) depends only on the graph's shape and labels, so it lives in a
// bandShape shared across every volume scale of a graph family (the CCR
// variants of a workload all read one shape). The volume half (UpInt/DownInt)
// depends on the edge volumes and is recomputed per scale — by the exact
// arithmetic a fresh build would use, so scaled bands are bit-identical to
// freshly analyzed ones. Both halves are platform- and period-independent and
// are shared across DPA2D, DPA2D1D and every period division (see
// Analysis.Band). The exported structure is immutable after
// construction; the rectangle-convexity verdicts are memoized inside the
// shared shape under its own lock.
type Band struct {
	M1, M2 int

	// Internal lists edge indices with both endpoints in the band; Outgoing
	// lists edges with their source in the band and destination beyond it.
	// Both are label-only classifications shared with the band's shape.
	Internal []int
	Outgoing []int

	// UpInt[gp] (DownInt[gp]) is the volume of internal edges crossing the
	// row boundary gp upwards (downwards): y_src <= gp < y_dst (resp.
	// y_dst <= gp < y_src). Volume-dependent, so owned per scale.
	UpInt, DownInt []float64

	// Nodes lists the band's stages in topological order; Local maps a stage
	// index to its position in Nodes. Anc[i] (Desc[i]) is the y bitmask of
	// the band-internal ancestors (descendants) of band node i, each Words
	// uint64 long. All shared with the shape.
	Nodes []int
	Local map[int]int
	Anc   [][]uint64
	Desc  [][]uint64
	Words int

	g     *Graph
	shape *bandShape
}

// bandShape is the structure-only core of a band: everything derived from
// stage labels and edge endpoints alone. One shape serves every volume scale
// of a graph family.
type bandShape struct {
	m1, m2             int
	internal, outgoing []int
	nodes              []int
	local              map[int]int
	anc, desc          [][]uint64
	words              int
	ymax               int
	g                  *Graph // structure/label authority (any family member)

	// convex memoizes rows-convexity verdicts: index r1*(ymax+2)+r2, with
	// 0 = unknown, 1 = convex, -1 = not convex. The verdict is graph-only,
	// so it is shared across every volume scale, platform and period that
	// queries the band.
	mu     sync.Mutex
	convex []int8
}

// RowsConvex reports whether restricting the band to label rows [r1..r2]
// yields a convex stage set: no band stage outside those rows may have both
// an ancestor and a descendant inside them (Section 5.3 assigns such
// rectangles infinite energy). Verdicts are memoized in the shared shape; the
// method is safe for concurrent use.
func (b *Band) RowsConvex(r1, r2 int) bool {
	return b.shape.rowsConvex(r1, r2)
}

func (s *bandShape) rowsConvex(r1, r2 int) bool {
	idx := r1*(s.ymax+2) + r2
	s.mu.Lock()
	if v := s.convex[idx]; v != 0 {
		s.mu.Unlock()
		return v > 0
	}
	s.mu.Unlock()
	ok := s.computeConvex(r1, r2)
	s.mu.Lock()
	if ok {
		s.convex[idx] = 1
	} else {
		s.convex[idx] = -1
	}
	s.mu.Unlock()
	return ok
}

func (s *bandShape) computeConvex(r1, r2 int) bool {
	mask := make([]uint64, s.words)
	for y := r1 - 1; y <= r2-1; y++ {
		mask[y/64] |= 1 << uint(y%64)
	}
	for li, st := range s.nodes {
		y := s.g.Stages[st].Label.Y
		if y >= r1 && y <= r2 {
			continue
		}
		var hasAnc, hasDesc bool
		for w := 0; w < s.words; w++ {
			if s.anc[li][w]&mask[w] != 0 {
				hasAnc = true
			}
			if s.desc[li][w]&mask[w] != 0 {
				hasDesc = true
			}
		}
		if hasAnc && hasDesc {
			return false
		}
	}
	return true
}

// newBandShape computes the structure-only band analysis of x levels
// [m1..m2]. topo is a topological order of the full graph; ymax its
// elevation. Any dependence path between two band stages stays inside the
// band (x is strictly increasing along edges), so band-local reachability
// suffices for rectangle convexity.
func newBandShape(g *Graph, topo []int, ymax, m1, m2 int) *bandShape {
	words := (ymax + 63) / 64
	s := &bandShape{
		m1: m1, m2: m2,
		local:  make(map[int]int),
		words:  words,
		ymax:   ymax,
		g:      g,
		convex: make([]int8, (ymax+2)*(ymax+2)),
	}
	inBand := func(st int) bool {
		x := g.Stages[st].Label.X
		return x >= m1 && x <= m2
	}
	for _, st := range topo {
		if inBand(st) {
			s.local[st] = len(s.nodes)
			s.nodes = append(s.nodes, st)
		}
	}
	for ei, edge := range g.Edges {
		switch {
		case inBand(edge.Src) && inBand(edge.Dst):
			s.internal = append(s.internal, ei)
		case inBand(edge.Src) && g.Stages[edge.Dst].Label.X > m2:
			s.outgoing = append(s.outgoing, ei)
		}
	}
	// Band-internal ancestor/descendant y masks, propagated in topological
	// (node list) order.
	nb := len(s.nodes)
	s.anc = make([][]uint64, nb)
	s.desc = make([][]uint64, nb)
	masks := make([]uint64, 2*nb*words)
	for i := 0; i < nb; i++ {
		s.anc[i], masks = masks[:words], masks[words:]
		s.desc[i], masks = masks[:words], masks[words:]
	}
	for li, st := range s.nodes {
		for _, ei := range g.OutEdges(st) {
			edge := g.Edges[ei]
			ld, ok := s.local[edge.Dst]
			if !ok {
				continue
			}
			y := g.Stages[st].Label.Y - 1
			s.anc[ld][y/64] |= 1 << uint(y%64)
			for w := 0; w < words; w++ {
				s.anc[ld][w] |= s.anc[li][w]
			}
		}
	}
	for li := nb - 1; li >= 0; li-- {
		st := s.nodes[li]
		for _, ei := range g.OutEdges(st) {
			edge := g.Edges[ei]
			ld, ok := s.local[edge.Dst]
			if !ok {
				continue
			}
			y := g.Stages[edge.Dst].Label.Y - 1
			s.desc[li][y/64] |= 1 << uint(y%64)
			for w := 0; w < words; w++ {
				s.desc[li][w] |= s.desc[ld][w]
			}
		}
	}
	return s
}

// newBandAt binds a shared shape to one volume scale: the structural fields
// alias the shape, and the crossing volumes are accumulated from g's edge
// volumes in ascending edge order — the same order a monolithic build used,
// so the prefix sums are bit-identical to a from-scratch analysis of g.
func newBandAt(s *bandShape, g *Graph) *Band {
	b := &Band{
		M1: s.m1, M2: s.m2,
		Internal: s.internal,
		Outgoing: s.outgoing,
		UpInt:    make([]float64, s.ymax+1),
		DownInt:  make([]float64, s.ymax+1),
		Nodes:    s.nodes,
		Local:    s.local,
		Anc:      s.anc,
		Desc:     s.desc,
		Words:    s.words,
		g:        g,
		shape:    s,
	}
	upDiff := make([]float64, s.ymax+2)
	downDiff := make([]float64, s.ymax+2)
	for _, ei := range s.internal {
		edge := g.Edges[ei]
		ys, yd := g.Stages[edge.Src].Label.Y, g.Stages[edge.Dst].Label.Y
		if ys < yd {
			upDiff[ys] += edge.Volume
			upDiff[yd] -= edge.Volume
		} else if yd < ys {
			downDiff[yd] += edge.Volume
			downDiff[ys] -= edge.Volume
		}
	}
	var up, down float64
	for gp := 0; gp <= s.ymax; gp++ {
		up += upDiff[gp]
		down += downDiff[gp]
		b.UpInt[gp] = up
		b.DownInt[gp] = down
	}
	return b
}
