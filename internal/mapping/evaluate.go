package mapping

import (
	"errors"
	"fmt"

	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// Tolerance for floating-point feasibility comparisons: a resource cycle-time
// may exceed the period by at most this relative amount.
const relTol = 1e-9

// Result reports the evaluation of a valid mapping.
type Result struct {
	// Energy is the total energy per period: E(comp) + E(comm).
	Energy float64
	// CompLeakEnergy is |A| * P_leak^(comp) * T.
	CompLeakEnergy float64
	// CompDynEnergy is sum over cores of (w/s) * P_dyn(s).
	CompDynEnergy float64
	// CommLeakEnergy is P_leak^(comm) * T.
	CommLeakEnergy float64
	// CommDynEnergy is sum over links of load * E(bit).
	CommDynEnergy float64

	// MaxCycleTime is the maximum resource cycle-time (seconds); it never
	// exceeds the period for a valid mapping.
	MaxCycleTime float64
	// ActiveCores is |A|, the number of cores hosting at least one stage.
	ActiveCores int
	// UsedLinks is the number of directed links carrying a positive volume.
	UsedLinks int
}

// Evaluate validates m against the DAG-partition mapping rules and the period
// bound T, and computes its energy. It returns an error describing the first
// violation when the mapping is invalid.
func Evaluate(g *spg.Graph, pl *platform.Platform, m *Mapping, T float64) (*Result, error) {
	return evaluate(g, pl, m, T, true)
}

// EvaluateGeneral is Evaluate without the DAG-partition (quotient
// acyclicity) requirement. It supports the paper's future-work direction of
// assessing general mappings: the per-resource cycle-time bound still
// characterizes the achievable steady-state period, but a cyclic cluster
// quotient requires software pipelining across data sets (each core buffers
// results between iterations) instead of the simple cluster-at-a-time
// schedule that acyclic quotients allow.
func EvaluateGeneral(g *spg.Graph, pl *platform.Platform, m *Mapping, T float64) (*Result, error) {
	return evaluate(g, pl, m, T, false)
}

func evaluate(g *spg.Graph, pl *platform.Platform, m *Mapping, T float64, requireAcyclic bool) (*Result, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if T <= 0 {
		return nil, errors.New("mapping: period must be positive")
	}
	if len(m.Alloc) != g.N() {
		return nil, fmt.Errorf("mapping: %d allocations for %d stages", len(m.Alloc), g.N())
	}
	if len(m.SpeedIdx) != pl.NumCores() {
		return nil, fmt.Errorf("mapping: %d speed entries for %d cores", len(m.SpeedIdx), pl.NumCores())
	}
	for i, c := range m.Alloc {
		if !pl.InBounds(c) {
			return nil, fmt.Errorf("mapping: stage %d mapped outside the grid: %v", i, c)
		}
	}
	if requireAcyclic {
		if err := checkDAGPartition(g, pl, m); err != nil {
			return nil, err
		}
	}

	// Dense per-core and per-link tables, carved from one float and one
	// flag block: work and used are indexed u*Q+v, load and touched by
	// linkSlot. Both are visited in index order, so the floating-point
	// accumulation (and the violation reported first) is deterministic: the
	// same mapping always evaluates to the bit-identical energy.
	cores := pl.NumCores()
	vals := make([]float64, 5*cores)
	flags := make([]bool, 5*cores)
	work, used := vals[:cores], flags[:cores]
	links := linkTable{load: vals[cores:], touched: flags[cores:]}
	res := &Result{}

	// Computation cycle-times and energy, cores in row-major order.
	for i, c := range m.Alloc {
		ci := CoreIndex(pl, c)
		work[ci] += g.Stages[i].Weight
		used[ci] = true
	}
	for ci, w := range work {
		if !used[ci] {
			continue
		}
		idx := m.SpeedIdx[ci]
		if idx < 0 || idx >= len(pl.Speeds) {
			return nil, fmt.Errorf("mapping: core %v hosts stages but has speed index %d", coreAt(pl, ci), idx)
		}
		ct := w / pl.Speeds[idx]
		if ct > T*(1+relTol) {
			return nil, fmt.Errorf("mapping: core %v cycle-time %.6g exceeds period %.6g", coreAt(pl, ci), ct, T)
		}
		if ct > res.MaxCycleTime {
			res.MaxCycleTime = ct
		}
		res.CompLeakEnergy += float64(pl.LeakPower * T)
		res.CompDynEnergy += float64(w / pl.Speeds[idx] * pl.DynPower[idx])
		res.ActiveCores++
	}

	// Communication routing: each link's volume adds in edge order, then
	// path order. XY routes are walked in place; pinned paths are validated
	// first.
	for e, edge := range g.Edges {
		a, b := m.Alloc[edge.Src], m.Alloc[edge.Dst]
		path, pinned := m.Paths[e]
		if a == b {
			if pinned {
				return nil, fmt.Errorf("mapping: edge %d is intra-core but has a path", e)
			}
			continue
		}
		if !pinned {
			links.addXY(pl.Q, a, b, edge.Volume)
			continue
		}
		if err := pl.ValidatePath(a, b, path); err != nil {
			return nil, fmt.Errorf("mapping: edge %d: %w", e, err)
		}
		for _, l := range path {
			links.add(linkSlot(pl, l), edge.Volume)
		}
	}
	// Link loads and cycle-times, links in ascending (from, to) row-major
	// order; exactly the links some route touched are checked and summed.
	capacity := pl.LinkCapacity(T)
	for slot, load := range links.load {
		if !links.touched[slot] {
			continue
		}
		if load > capacity*(1+relTol) {
			return nil, fmt.Errorf("mapping: link %v load %.6g GB exceeds capacity %.6g GB", slotLink(pl, slot), load, capacity)
		}
		if load > 0 {
			res.UsedLinks++
		}
		if ct := load / pl.BW; ct > res.MaxCycleTime {
			res.MaxCycleTime = ct
		}
		res.CommDynEnergy += float64(load * pl.EnergyPerGB)
	}

	res.CommLeakEnergy = float64(pl.CommLeakPower * T)
	res.Energy = res.CompLeakEnergy + res.CompDynEnergy + res.CommLeakEnergy + res.CommDynEnergy
	return res, nil
}

// Directions of the four links leaving a core, ordered so that for one
// from-core the slot from*4+dir ascends with the to-core's row-major index:
// slot order is (from, to) row-major order.
const (
	dirUp = iota
	dirLeft
	dirRight
	dirDown
)

// linkTable accumulates per-link volumes in a dense table of 4*NumCores
// slots; touched marks the slots some route crossed, even at zero volume.
type linkTable struct {
	load    []float64
	touched []bool
}

func (t linkTable) add(slot int, vol float64) {
	t.load[slot] += vol
	t.touched[slot] = true
}

// addXY adds vol to every link of the XY route from a to b, walking it in
// place: along a's row to b's column, then along that column, exactly the
// links XYPath lists.
func (t linkTable) addXY(q int, a, b platform.Core, vol float64) {
	ci := a.U*q + a.V
	for v := a.V; v < b.V; v++ {
		t.add(ci*4+dirRight, vol)
		ci++
	}
	for v := a.V; v > b.V; v-- {
		t.add(ci*4+dirLeft, vol)
		ci--
	}
	for u := a.U; u < b.U; u++ {
		t.add(ci*4+dirDown, vol)
		ci += q
	}
	for u := a.U; u > b.U; u-- {
		t.add(ci*4+dirUp, vol)
		ci -= q
	}
}

// linkSlot returns the dense slot of a grid link (From and To adjacent).
func linkSlot(pl *platform.Platform, l platform.Link) int {
	from := CoreIndex(pl, l.From) * 4
	switch {
	case l.To.U < l.From.U:
		return from + dirUp
	case l.To.V < l.From.V:
		return from + dirLeft
	case l.To.V > l.From.V:
		return from + dirRight
	}
	return from + dirDown
}

// slotLink is the inverse of linkSlot.
func slotLink(pl *platform.Platform, slot int) platform.Link {
	from := coreAt(pl, slot/4)
	to := from
	switch slot % 4 {
	case dirUp:
		to.U--
	case dirLeft:
		to.V--
	case dirRight:
		to.V++
	default:
		to.U++
	}
	return platform.Link{From: from, To: to}
}

func coreAt(pl *platform.Platform, ci int) platform.Core {
	return platform.Core{U: ci / pl.Q, V: ci % pl.Q}
}

// checkDAGPartition verifies the mapping rule of Section 3.3: the quotient
// graph whose nodes are the per-core stage clusters must be acyclic. The
// paper states the rule through the convexity closure property (any stage
// between two co-located stages must be co-located); acyclicity of the
// quotient is the property the proofs and the streaming semantics actually
// rely on, and it implies convexity.
func checkDAGPartition(g *spg.Graph, pl *platform.Platform, m *Mapping) error {
	// One int32 block holds every table: the dense cluster id of each core
	// (-1 when it hosts nothing, ids in first-use order), then, for the k
	// clusters, the quotient's adjacency in compressed rows (start, adj),
	// in-degrees and Kahn's queue. Parallel quotient edges stay in: Kahn's
	// algorithm counts each copy in and out, so acyclicity is unchanged.
	cores := pl.NumCores()
	maxK := min(cores, len(m.Alloc))
	buf := make([]int32, cores+3*maxK+1+len(g.Edges))
	id := buf[:cores]
	for i := range id {
		id[i] = -1
	}
	k := int32(0)
	for _, c := range m.Alloc {
		if ci := CoreIndex(pl, c); id[ci] < 0 {
			id[ci] = k
			k++
		}
	}
	rest := buf[cores:]
	start, indeg, queue, adj := rest[:k+1], rest[k+1:2*k+1], rest[2*k+1:3*k+1], rest[3*k+1:]
	cluster := func(stage int) int32 { return id[CoreIndex(pl, m.Alloc[stage])] }
	// start[a] first counts a's out-edges, then the prefix sums make it
	// a's row end, and filling backwards leaves it at a's row start.
	for _, e := range g.Edges {
		if a, b := cluster(e.Src), cluster(e.Dst); a != b {
			start[a]++
			indeg[b]++
		}
	}
	for a := int32(1); a <= k; a++ {
		start[a] += start[a-1]
	}
	for _, e := range g.Edges {
		if a, b := cluster(e.Src), cluster(e.Dst); a != b {
			start[a]--
			adj[start[a]] = b
		}
	}
	tail := 0
	for a := int32(0); a < k; a++ {
		if indeg[a] == 0 {
			queue[tail] = a
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		v := queue[head]
		for _, w := range adj[start[v]:start[v+1]] {
			indeg[w]--
			if indeg[w] == 0 {
				queue[tail] = w
				tail++
			}
		}
	}
	if int32(tail) != k {
		return errors.New("mapping: cluster quotient graph is cyclic (DAG-partition rule violated)")
	}
	return nil
}
