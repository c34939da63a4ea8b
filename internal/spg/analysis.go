package spg

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Analysis is a per-graph cache of the period-independent structures the
// heuristics and front-end tools consume: validation, transitive closure,
// elevation levels, the label grid, topological order, label-rectangle
// prefix sums, adjacency summaries, band analyses (DPA2D) and interned
// downset spaces (DPA1D). All of it depends only on the graph, never on the
// platform or the period, so one Analysis can be shared across every
// heuristic run on a workload — in particular across the up-to-ten period
// divisions of the Section 6.1.3 selection protocol, which would otherwise
// recompute each structure from scratch at every division.
//
// Analyses form scale families. ScaleToCCR derives the analysis of a
// uniformly volume-rescaled clone of the graph — the Section 6.1.1 CCR
// variants — and the expensive structure-only caches (reachability, levels,
// grids, prefix sums, band shapes with convexity verdicts, the interned
// downset lattice with its expansion enumerations) are shared verbatim
// across the whole family, because none of them reads an edge volume. Only
// the volume-dependent entries (CCR, in-volumes, band crossing volumes,
// downset cut volumes) are held per family member, and those are recomputed
// from the member's own volumes with the same arithmetic a fresh analysis
// would use, so a scaled analysis answers bit-identically to a from-scratch
// one.
//
// Every structure is computed lazily on first use and memoized behind its
// own sync.Once-style slot, so an expensive first build (a 150k-state
// downset space, say) never blocks getters of other structures on concurrent
// goroutines; only callers of the same structure wait for its first build.
// An Analysis is safe for concurrent use by multiple goroutines. The graph
// it wraps must not be mutated after NewAnalysis (mutating the graph would
// silently invalidate the memoized structures).
//
// Accessors return internal slices for speed; callers must treat them as
// read-only and copy before mutating.
type Analysis struct {
	g      *Graph
	shared *analysisShared

	// Volume-dependent, per family member.
	ccr   lazySlot[float64]
	inVol lazySlot[[]float64]

	bandMu sync.Mutex
	bands  []*lazySlot[*Band]

	downMu   sync.Mutex
	downsets map[int]*downsetSlot

	scaleMu sync.Mutex
	scaled  map[float64]*Analysis
}

// analysisShared is the structure-and-weight half of an analysis, shared by
// every member of a scale family. Nothing in here reads an edge volume.
type analysisShared struct {
	g *Graph // structure/weight authority: the family's founding graph

	validate lazySlot[error]
	reach    lazySlot[*Reachability]
	levels   lazySlot[[][]int]
	grid     lazySlot[[][]int]
	topo     lazySlot[topoMemo]
	dims     lazySlot[dimsMemo]
	preds    lazySlot[[]int]
	prefix   lazySlot[prefixMemo]
	lattice  lazySlot[uint64]

	// bandShapes[m1*(depth+1)+m2] memoizes the structural band analysis; a
	// dense slice because the DPA2D outer DP probes bands in tight loops
	// where map hashing is measurable. Cells are installed under bandMu and
	// built under their own once, so one band's build never blocks another's.
	bandMu     sync.Mutex
	bandShapes []*lazySlot[*bandShape]

	// downsetCores holds the per-budget interned downset lattices shared by
	// the family's DownsetSpace views.
	coreMu       sync.Mutex
	downsetCores map[int]*downsetCoreCell

	// aux lets downstream packages attach their own caches to the family
	// (core's DPA1D run memo).
	auxMu sync.Mutex
	aux   map[any]*lazySlot[any]
}

type topoMemo struct {
	order []int
	err   error
}

type dimsMemo struct {
	depth, elevation int
}

type prefixMemo struct {
	w [][]float64
	c [][]int
}

// downsetCoreCell lazily builds one budget's shared lattice core. It is a
// mutex-based (not sync.Once-based) cell because EvictDownsetSpace must read
// the built pointer for its identity check, and a once's completion gives no
// happens-before edge to a goroutine that never called it.
type downsetCoreCell struct {
	mu    sync.Mutex
	built bool
	core  *downsetCore
	err   error
}

// downsetSlot is the per-member counterpart of downsetCoreCell, holding the
// member's volume-scale view; mutex-based for the same eviction reason.
type downsetSlot struct {
	mu    sync.Mutex
	built bool
	ds    *DownsetSpace
	err   error
}

// lazySlot memoizes one structure behind its own sync.Once: the first caller
// builds, concurrent callers of the same structure wait, and callers of
// other structures are never blocked. Embed it by value for fixed slots, or
// heap-allocate (*lazySlot) cells for per-key tables — the owning map or
// slice installs cells under a short lock and each cell builds outside it.
type lazySlot[T any] struct {
	once sync.Once
	done atomic.Bool
	v    T
}

func (s *lazySlot[T]) get(build func() T) T {
	s.once.Do(func() {
		s.v = build()
		s.done.Store(true)
	})
	return s.v
}

// value observes the slot without building: it returns the memoized value
// and true once a build has completed (the atomic flag orders the read after
// the build's writes). MemoryFootprint probes slots this way so accounting
// never forces a structure into existence.
func (s *lazySlot[T]) value() (T, bool) {
	if !s.done.Load() {
		var zero T
		return zero, false
	}
	return s.v, true
}

// NewAnalysis wraps g in an empty cache, founding a new scale family. The
// graph's adjacency lists are built eagerly so that concurrent reads through
// the Graph accessors (Successors, OutEdges, ...) are race-free afterwards.
func NewAnalysis(g *Graph) *Analysis {
	if g != nil {
		g.buildAdj()
	}
	return &Analysis{
		g:      g,
		shared: &analysisShared{g: g},
	}
}

// Graph returns the wrapped graph.
func (a *Analysis) Graph() *Graph { return a.g }

// ScaleToCCR returns the analysis of a clone of the wrapped graph whose edge
// volumes are uniformly rescaled so its CCR equals target — the same
// arithmetic as the package-level ScaleToCCR, so the returned graph is
// bit-identical to independently rescaling a copy. The result shares this
// analysis's structural caches (see the type comment); results are memoized
// per target, so the CCR variants of a campaign resolve to one family
// member each. Derive every variant from the same base analysis: scaling is
// relative to the receiver's volumes, so chained scalings compose
// numerically instead of sharing memo entries.
func (a *Analysis) ScaleToCCR(target float64) *Analysis {
	if a.g == nil {
		return a
	}
	a.scaleMu.Lock()
	defer a.scaleMu.Unlock()
	if v, ok := a.scaled[target]; ok {
		return v
	}
	g2 := a.g.Clone()
	ScaleToCCR(g2, target)
	g2.buildAdj()
	v := &Analysis{g: g2, shared: a.shared}
	if a.scaled == nil {
		a.scaled = make(map[float64]*Analysis)
	}
	a.scaled[target] = v
	return v
}

// Aux returns the memoized auxiliary value for key, building it on first
// use. It lets downstream packages attach their own caches to the analysis
// — the core package stores its DPA1D run memo here, whose entries name the
// member graph they belong to — with the same sharing scope as the structural caches: one value per
// scale family, never per volume variant. Keys follow the context.Context
// convention (unexported types in the owning package). The build function
// must not depend on edge volumes.
func (a *Analysis) Aux(key any, build func() any) any {
	sh := a.shared
	sh.auxMu.Lock()
	if sh.aux == nil {
		sh.aux = make(map[any]*lazySlot[any])
	}
	cell := sh.aux[key]
	if cell == nil {
		cell = &lazySlot[any]{}
		sh.aux[key] = cell
	}
	sh.auxMu.Unlock()
	return cell.get(build)
}

// Validate memoizes Graph.Validate: the first call pays the full structural
// check, every later call returns the recorded verdict. This is what makes
// Instance.Validate idempotent when an Analysis is attached. The verdict is
// shared across the scale family: a uniform non-negative volume rescale can
// change neither the structure nor any volume's sign, so every member
// validates identically.
func (a *Analysis) Validate() error {
	return a.shared.validate.get(func() error {
		if a.shared.g == nil {
			return errors.New("spg: analysis of a nil graph")
		}
		return a.shared.g.Validate()
	})
}

// Reachability returns the memoized transitive closure.
func (a *Analysis) Reachability() *Reachability {
	sh := a.shared
	return sh.reach.get(func() *Reachability { return NewReachability(sh.g) })
}

// Levels returns the memoized elevation levels (see the Levels function).
func (a *Analysis) Levels() [][]int {
	return a.shared.levelsMemo()
}

func (sh *analysisShared) levelsMemo() [][]int {
	return sh.levels.get(func() [][]int { return Levels(sh.g) })
}

// StageGrid returns the memoized Depth() x Elevation() label grid (see the
// StageGrid function). DPA2D itself consumes the prefix sums and bands; the
// grid form is kept for renderers, tools and tests.
func (a *Analysis) StageGrid() [][]int {
	sh := a.shared
	return sh.grid.get(func() [][]int { return StageGrid(sh.g) })
}

// TopoOrder returns the memoized topological order.
func (a *Analysis) TopoOrder() ([]int, error) {
	t := a.shared.topoMemo()
	return t.order, t.err
}

func (sh *analysisShared) topoMemo() topoMemo {
	return sh.topo.get(func() topoMemo {
		order, err := sh.g.TopoOrder()
		return topoMemo{order: order, err: err}
	})
}

func (sh *analysisShared) dimsMemo() dimsMemo {
	return sh.dims.get(func() dimsMemo {
		return dimsMemo{depth: sh.g.Depth(), elevation: sh.g.Elevation()}
	})
}

// Depth returns the memoized x_max.
func (a *Analysis) Depth() int { return a.shared.dimsMemo().depth }

// Elevation returns the memoized y_max.
func (a *Analysis) Elevation() int { return a.shared.dimsMemo().elevation }

// CCR returns the memoized computation-to-communication ratio. Volumes
// differ per family member, so the value is held per member.
func (a *Analysis) CCR() float64 {
	return a.ccr.get(func() float64 { return CCR(a.g) })
}

// DownsetCount returns the number of downsets of the graph — the states of
// DPA1D's lattice, the empty and the full set included — counted from its SP
// decomposition tree: the root's count (see DecompNode.downsets) plus the
// empty and the full set. It saturates at math.MaxUint64 and is 0 when the
// graph does not decompose. The count reads no volume, so it is held once per
// scale family.
func (a *Analysis) DownsetCount() uint64 {
	return a.shared.downsetCount()
}

func (sh *analysisShared) downsetCount() uint64 {
	return sh.lattice.get(func() uint64 {
		root, err := Decompose(sh.g)
		if err != nil {
			return 0
		}
		return satAdd(root.downsets(), 2)
	})
}

// Lattice pre-sizing bounds. A downset is identified by how many stages of
// each elevation level it holds, so Π(|level|+1) bounds the lattice. A
// lattice core grows its arenas on demand up to smallLattice states and then
// reserves its whole capacity at once (downsetCore.reserve), so a lattice
// whose bound is at most smallLattice never needs a capacity, and is not
// counted: the exact solver's and the /v1/map miss path's graphs all fall
// below it and never decompose. presizedStates caps the capacity at
// DPA1D's default state budget.
const (
	smallLattice   = 1 << 12
	presizedStates = 150_000
)

// downsetCapacity is the number of states a new lattice core under a budget
// of maxStates reserves room for: min(count, maxStates, presizedStates)+1,
// or 0 (grow on demand) for a small lattice or one the SP tree cannot count.
// A run touches at most maxStates states and the lattice holds count, so
// the arenas rarely grow past it; when several runs intern different
// states they grow on demand as before.
func (sh *analysisShared) downsetCapacity(maxStates int, levels [][]int) int {
	bound := uint64(1)
	for _, lv := range levels {
		if bound *= uint64(len(lv) + 1); bound > smallLattice {
			break
		}
	}
	if bound <= smallLattice {
		return 0
	}
	count := sh.downsetCount()
	if count == 0 {
		return 0
	}
	return int(min(count, uint64(maxStates), presizedStates)) + 1
}

// PredCounts returns, per stage, the number of distinct predecessors — the
// initial in-degree vector the list-scheduling heuristics start from. The
// returned slice is shared; copy before decrementing.
func (a *Analysis) PredCounts() []int {
	sh := a.shared
	return sh.preds.get(func() []int {
		pc := make([]int, sh.g.N())
		for i := range pc {
			pc[i] = len(sh.g.Predecessors(i))
		}
		return pc
	})
}

// InVolumes returns, per stage, the total incoming communication volume (the
// sort key of the Greedy heuristic), summed from this member's own volumes
// in edge order. The returned slice is shared and must not be mutated.
func (a *Analysis) InVolumes() []float64 {
	return a.inVol.get(func() []float64 {
		iv := make([]float64, a.g.N())
		for i := range iv {
			for _, e := range a.g.InEdges(i) {
				iv[i] += a.g.Edges[e].Volume
			}
		}
		return iv
	})
}

// LabelPrefixSums returns (xmax+1) x (ymax+1) 2D prefix sums over the label
// grid: w[x][y] is the total weight and c[x][y] the stage count of labels
// (x' <= x, y' <= y), both 1-based with a zero guard row/column. DPA2D uses
// them for O(1) rectangle work and population queries. The returned slices
// are shared and must not be mutated.
func (a *Analysis) LabelPrefixSums() (w [][]float64, c [][]int) {
	sh := a.shared
	m := sh.prefix.get(func() prefixMemo {
		dims := sh.dimsMemo()
		xmax, ymax := dims.depth, dims.elevation
		wp := make([][]float64, xmax+1)
		cp := make([][]int, xmax+1)
		for x := 0; x <= xmax; x++ {
			wp[x] = make([]float64, ymax+1)
			cp[x] = make([]int, ymax+1)
		}
		for _, s := range sh.g.Stages {
			wp[s.Label.X][s.Label.Y] += s.Weight
			cp[s.Label.X][s.Label.Y]++
		}
		for x := 1; x <= xmax; x++ {
			for y := 1; y <= ymax; y++ {
				wp[x][y] += wp[x-1][y] + wp[x][y-1] - wp[x-1][y-1]
				cp[x][y] += cp[x-1][y] + cp[x][y-1] - cp[x-1][y-1]
			}
		}
		return prefixMemo{w: wp, c: cp}
	})
	return m.w, m.c
}

// Band returns (building and memoizing on first use) the platform- and
// period-independent analysis of the band of x levels [m1..m2] used by the
// DPA2D nested dynamic program. The structural half is shared across the
// scale family; the crossing volumes are this member's own. Bands are shared
// between DPA2D and DPA2D1D, and across all period divisions of the
// selection protocol.
func (a *Analysis) Band(m1, m2 int) *Band {
	depth := a.Depth()
	key := m1*(depth+1) + m2
	a.bandMu.Lock()
	if a.bands == nil {
		a.bands = make([]*lazySlot[*Band], (depth+1)*(depth+1))
	}
	cell := a.bands[key]
	if cell == nil {
		cell = &lazySlot[*Band]{}
		a.bands[key] = cell
	}
	a.bandMu.Unlock()
	return cell.get(func() *Band {
		shape := a.shared.bandShape(m1, m2)
		return newBandAt(shape, a.g)
	})
}

func (sh *analysisShared) bandShape(m1, m2 int) *bandShape {
	dims := sh.dimsMemo()
	key := m1*(dims.depth+1) + m2
	sh.bandMu.Lock()
	if sh.bandShapes == nil {
		sh.bandShapes = make([]*lazySlot[*bandShape], (dims.depth+1)*(dims.depth+1))
	}
	cell := sh.bandShapes[key]
	if cell == nil {
		cell = &lazySlot[*bandShape]{}
		sh.bandShapes[key] = cell
	}
	sh.bandMu.Unlock()
	return cell.get(func() *bandShape {
		topo := sh.topoMemo()
		return newBandShape(sh.g, topo.order, dims.elevation, m1, m2)
	})
}

// DownsetSpace returns the memoized admissible-subgraph space for the given
// state budget, creating it on first use. Spaces are keyed by budget so that
// configurations with different caps (library default vs experiment
// campaigns) never observe each other's limits; within one budget the
// interned lattice persists across runs — and is shared with the scale
// family's sibling members, which hold their own volume-dependent views over
// it — while per-run budget accounting is handled by Run cursors
// (DownsetSpace.NewRun).
func (a *Analysis) DownsetSpace(maxStates int) (*DownsetSpace, error) {
	maxStates = normalizeStateBudget(maxStates)
	a.downMu.Lock()
	if a.downsets == nil {
		a.downsets = make(map[int]*downsetSlot)
	}
	slot := a.downsets[maxStates]
	if slot == nil {
		slot = &downsetSlot{}
		a.downsets[maxStates] = slot
	}
	a.downMu.Unlock()
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if !slot.built {
		core, err := a.shared.downsetCore(maxStates, a.shared.levelsMemo())
		if err != nil {
			slot.err = err
		} else {
			slot.ds = core.viewFor(a.g)
		}
		slot.built = true
	}
	return slot.ds, slot.err
}

func (sh *analysisShared) downsetCore(maxStates int, levels [][]int) (*downsetCore, error) {
	sh.coreMu.Lock()
	if sh.downsetCores == nil {
		sh.downsetCores = make(map[int]*downsetCoreCell)
	}
	cell := sh.downsetCores[maxStates]
	if cell == nil {
		cell = &downsetCoreCell{}
		sh.downsetCores[maxStates] = cell
	}
	sh.coreMu.Unlock()
	cell.mu.Lock()
	defer cell.mu.Unlock()
	if !cell.built {
		cell.core, cell.err = newDownsetCore(sh.g, levels, maxStates, sh.downsetCapacity(maxStates, levels))
		cell.built = true
	}
	return cell.core, cell.err
}

// EvictDownsetSpace drops the memoized space for the given budget, provided
// the slot still holds the space the caller observed failing (a concurrent
// eviction may already have replaced it with a fresh space another goroutine
// is warming — that one must survive). DPA1D evicts after a budget-exhausted
// run: each period's enumeration explores a different frontier of a
// partially enumerated space, so keeping it would grow memory without bound
// across runs and slow every later enumeration behind a bloated intern
// table. Dropping it keeps failed runs on exactly the same footing as a
// fresh space. The family-shared lattice core is evicted alongside the view
// when the view still wraps it; sibling members that already hold views over
// the old core keep them (they stay correct — run cursors make the budget
// accounting history-independent) until their own next eviction.
func (a *Analysis) EvictDownsetSpace(maxStates int, ds *DownsetSpace) {
	maxStates = normalizeStateBudget(maxStates)
	a.downMu.Lock()
	if slot, ok := a.downsets[maxStates]; ok {
		slot.mu.Lock()
		match := slot.built && slot.ds == ds
		slot.mu.Unlock()
		if match {
			delete(a.downsets, maxStates)
		}
	}
	a.downMu.Unlock()
	if ds == nil {
		return
	}
	sh := a.shared
	sh.coreMu.Lock()
	if cell, ok := sh.downsetCores[maxStates]; ok {
		cell.mu.Lock()
		match := cell.built && cell.core == ds.core
		cell.mu.Unlock()
		if match {
			delete(sh.downsetCores, maxStates)
		}
	}
	sh.coreMu.Unlock()
}
