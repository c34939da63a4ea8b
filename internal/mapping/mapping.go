// Package mapping represents DAG-partition mappings of a series-parallel
// workflow onto a CMP and evaluates them: DAG-partition validity, period
// feasibility (maximum resource cycle-time, Section 3.4) and energy
// consumption (Section 3.5). Every heuristic's output flows through the
// single evaluator in this package, so reported energies are computed by one
// authoritative model rather than by each heuristic's internal bookkeeping.
package mapping

import (
	"fmt"
	"sort"

	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// Mapping assigns every stage to a core, gives every used core a speed, and
// optionally pins explicit routes for inter-core communications.
type Mapping struct {
	// Alloc[i] is the core executing stage i.
	Alloc []platform.Core
	// SpeedIdx[u*Q+v] is the index into Platform.Speeds of the speed of core
	// (u,v), or -1 when the core is off. Cores hosting at least one stage
	// must have a speed.
	SpeedIdx []int
	// Paths optionally routes edge e (index into Graph.Edges) over an
	// explicit sequence of directed links. Edges without an entry use XY
	// routing. Edges whose endpoints share a core must have no entry.
	Paths map[int][]platform.Link
}

// New returns a mapping skeleton for n stages on pl with all cores off.
func New(n int, pl *platform.Platform) *Mapping {
	m := &Mapping{
		Alloc:    make([]platform.Core, n),
		SpeedIdx: make([]int, pl.NumCores()),
	}
	for i := range m.SpeedIdx {
		m.SpeedIdx[i] = -1
	}
	return m
}

// CoreIndex flattens a core coordinate for indexing SpeedIdx.
func CoreIndex(pl *platform.Platform, c platform.Core) int { return c.U*pl.Q + c.V }

// SpeedOf returns the speed index of core c.
func (m *Mapping) SpeedOf(pl *platform.Platform, c platform.Core) int {
	return m.SpeedIdx[CoreIndex(pl, c)]
}

// SetSpeed sets the speed index of core c.
func (m *Mapping) SetSpeed(pl *platform.Platform, c platform.Core, idx int) {
	m.SpeedIdx[CoreIndex(pl, c)] = idx
}

// PathFor returns the route of edge e from core a to b: the explicit path if
// one was pinned, the XY route otherwise.
func (m *Mapping) PathFor(pl *platform.Platform, e int, a, b platform.Core) []platform.Link {
	if p, ok := m.Paths[e]; ok {
		return p
	}
	return pl.XYPath(a, b)
}

// Clusters groups stage indices by hosting core. Stages within each cluster
// are sorted ascending; cluster keys are returned in row-major core order.
func (m *Mapping) Clusters(pl *platform.Platform) (cores []platform.Core, byCore map[platform.Core][]int) {
	byCore = make(map[platform.Core][]int)
	for i, c := range m.Alloc {
		byCore[c] = append(byCore[c], i)
	}
	for _, stages := range byCore {
		sort.Ints(stages)
	}
	cores = make([]platform.Core, 0, len(byCore))
	for c := range byCore {
		cores = append(cores, c)
	}
	sort.Slice(cores, func(i, j int) bool {
		if cores[i].U != cores[j].U {
			return cores[i].U < cores[j].U
		}
		return cores[i].V < cores[j].V
	})
	return cores, byCore
}

// CoreWork returns, for each used core, the total weight of its stages.
func (m *Mapping) CoreWork(g *spg.Graph) map[platform.Core]float64 {
	work := make(map[platform.Core]float64)
	for i, c := range m.Alloc {
		work[c] += g.Stages[i].Weight
	}
	return work
}

// DowngradeSpeeds lowers every used core to the slowest speed that still
// meets the period for its assigned work, and turns off unused cores. This is
// the post-pass applied by the Greedy heuristic (Section 5.2); it never
// increases energy. It returns false if some core cannot meet the period even
// at maximum speed.
func (m *Mapping) DowngradeSpeeds(g *spg.Graph, pl *platform.Platform, T float64) bool {
	// Per-core work is dense, indexed like SpeedIdx; a used core is marked
	// by a provisional speed index 0 until its real speed is chosen, in
	// row-major order.
	work := make([]float64, len(m.SpeedIdx))
	for i := range m.SpeedIdx {
		m.SpeedIdx[i] = -1
	}
	for i, c := range m.Alloc {
		ci := CoreIndex(pl, c)
		work[ci] += g.Stages[i].Weight
		m.SpeedIdx[ci] = 0
	}
	for ci, w := range work {
		if m.SpeedIdx[ci] < 0 {
			continue
		}
		_, idx, ok := pl.MinFeasibleSpeed(w, T)
		if !ok {
			return false
		}
		m.SpeedIdx[ci] = idx
	}
	return true
}

// Clone deep-copies the mapping.
func (m *Mapping) Clone() *Mapping {
	nm := &Mapping{
		Alloc:    append([]platform.Core(nil), m.Alloc...),
		SpeedIdx: append([]int(nil), m.SpeedIdx...),
	}
	if m.Paths != nil {
		nm.Paths = make(map[int][]platform.Link, len(m.Paths))
		for e, p := range m.Paths {
			nm.Paths[e] = append([]platform.Link(nil), p...)
		}
	}
	return nm
}

// String summarizes the mapping.
func (m *Mapping) String() string {
	used := make(map[platform.Core]int)
	for _, c := range m.Alloc {
		used[c]++
	}
	return fmt.Sprintf("Mapping{stages=%d, cores=%d}", len(m.Alloc), len(used))
}
