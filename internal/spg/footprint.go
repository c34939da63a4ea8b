package spg

// Memory footprint estimation for the campaign-scope cache: the engine's
// AnalysisCache bounds retained bytes with these estimates, refreshing them
// as analyses keep growing (interned downset lattices and band tables are
// built lazily while solvers run). The numbers are deliberate approximations
// — slice headers, map buckets and allocator slack are modelled with flat
// constants — because the bound they feed is a capacity policy, not an
// allocator: being ~20% off never changes which workloads a campaign can
// hold by an order of magnitude, while an exact accounting would need
// unsafe.Sizeof walks over every private structure.

// Per-entry approximations, in bytes.
const (
	sliceHeaderBytes = 24 // pointer + len + cap
	mapEntryBytes    = 48 // bucket share + key/value overhead for small keys
	stageBytes       = 40 // Weight + Label + Name header
	edgeBytes        = 24 // Src + Dst + Volume
)

// Footprinter lets values attached through Analysis.Aux participate in
// MemoryFootprint: auxiliary caches that implement it (core's DPA1D run
// memo) report their retained bytes once per family, all others are counted
// as zero.
type Footprinter interface {
	MemoryFootprint() int64
}

// MemoryFootprint estimates the heap bytes retained by this analysis: the
// wrapped graph, every structure built so far (unbuilt slots cost nothing —
// probing never forces a build), and — on a scale-family base — the
// volume-dependent halves of every scaled member derived from it, since
// those are retained by the base's scale memo. The structural half shared
// by the family is charged once, on whichever member the caller asks
// (cache-bound callers hold family bases, so in practice: once per family).
// The interned downset lattices dominate on large-elevation workloads.
//
// The method is safe for concurrent use and takes only the analysis's own
// short-lived locks; it never blocks a build in progress (in-flight
// structures simply don't count yet).
func (a *Analysis) MemoryFootprint() int64 {
	if a == nil {
		return 0
	}
	return a.shared.footprint() + a.memberFootprint()
}

// memberFootprint sums the volume-dependent, per-member structures of this
// analysis and (recursively) of every scaled member hanging off it.
func (a *Analysis) memberFootprint() int64 {
	b := graphFootprint(a.g)
	if _, ok := a.ccr.value(); ok {
		b += 8
	}
	if iv, ok := a.inVol.value(); ok {
		b += sliceHeaderBytes + int64(len(iv))*8
	}

	a.bandMu.Lock()
	bands := append([]*lazySlot[*Band](nil), a.bands...)
	a.bandMu.Unlock()
	for _, cell := range bands {
		if cell == nil {
			continue
		}
		if band, ok := cell.value(); ok && band != nil {
			// The structural half is shared with the family's bandShape and
			// counted there; only the per-member crossing volumes are ours.
			b += 2 * (sliceHeaderBytes + int64(len(band.UpInt))*8)
		}
	}

	a.downMu.Lock()
	views := make([]*DownsetSpace, 0, len(a.downsets))
	//spglint:ignore detrange collects map values for a commutative sum; iteration order never reaches the result
	for _, slot := range a.downsets {
		slot.mu.Lock()
		if slot.built && slot.ds != nil {
			views = append(views, slot.ds)
		}
		slot.mu.Unlock()
	}
	a.downMu.Unlock()
	for _, ds := range views {
		b += ds.viewFootprint()
	}

	a.scaleMu.Lock()
	scaled := make([]*Analysis, 0, len(a.scaled))
	//spglint:ignore detrange collects map values for a commutative sum; iteration order never reaches the result
	for _, v := range a.scaled {
		scaled = append(scaled, v)
	}
	a.scaleMu.Unlock()
	for _, v := range scaled {
		b += v.memberFootprint()
	}
	return b
}

// footprint sums the structure-and-weight half shared by the scale family.
func (sh *analysisShared) footprint() int64 {
	var b int64
	if r, ok := sh.reach.value(); ok && r != nil {
		b += sliceHeaderBytes + int64(len(r.bits))*8
	}
	if lv, ok := sh.levels.value(); ok {
		b += nestedIntFootprint(lv)
	}
	if gr, ok := sh.grid.value(); ok {
		b += nestedIntFootprint(gr)
	}
	if t, ok := sh.topo.value(); ok {
		b += sliceHeaderBytes + int64(len(t.order))*8
	}
	if p, ok := sh.preds.value(); ok {
		b += sliceHeaderBytes + int64(len(p))*8
	}
	if m, ok := sh.prefix.value(); ok {
		for _, row := range m.w {
			b += sliceHeaderBytes + int64(len(row))*8
		}
		for _, row := range m.c {
			b += sliceHeaderBytes + int64(len(row))*8
		}
	}

	sh.bandMu.Lock()
	shapes := append([]*lazySlot[*bandShape](nil), sh.bandShapes...)
	sh.bandMu.Unlock()
	for _, cell := range shapes {
		if cell == nil {
			continue
		}
		if s, ok := cell.value(); ok && s != nil {
			b += s.footprint()
		}
	}

	sh.coreMu.Lock()
	cores := make([]*downsetCore, 0, len(sh.downsetCores))
	//spglint:ignore detrange collects map values for a commutative sum; iteration order never reaches the result
	for _, cell := range sh.downsetCores {
		cell.mu.Lock()
		if cell.built && cell.core != nil {
			cores = append(cores, cell.core)
		}
		cell.mu.Unlock()
	}
	sh.coreMu.Unlock()
	for _, core := range cores {
		b += core.footprint()
	}

	sh.auxMu.Lock()
	auxen := make([]*lazySlot[any], 0, len(sh.aux))
	//spglint:ignore detrange collects map values for a commutative sum; iteration order never reaches the result
	for _, cell := range sh.aux {
		auxen = append(auxen, cell)
	}
	sh.auxMu.Unlock()
	for _, cell := range auxen {
		if v, ok := cell.value(); ok {
			if fp, ok := v.(Footprinter); ok {
				b += fp.MemoryFootprint()
			}
		}
	}
	return b
}

// graphFootprint estimates a graph's stages, edges and adjacency caches.
func graphFootprint(g *Graph) int64 {
	if g == nil {
		return 0
	}
	n, e := int64(len(g.Stages)), int64(len(g.Edges))
	b := n*stageBytes + e*edgeBytes
	// out and in: one header per stage plus one int per edge in each.
	b += 2 * (n*sliceHeaderBytes + e*8)
	return b
}

func nestedIntFootprint(rows [][]int) int64 {
	b := int64(sliceHeaderBytes)
	for _, row := range rows {
		b += sliceHeaderBytes + int64(len(row))*8
	}
	return b
}

// footprint estimates the structure-only band analysis: index slices, the
// local map, the ancestor/descendant masks (one backing array) and the
// memoized convexity verdicts.
func (s *bandShape) footprint() int64 {
	b := int64(3*sliceHeaderBytes) + int64(len(s.internal)+len(s.outgoing)+len(s.nodes))*8
	b += int64(len(s.local)) * mapEntryBytes
	b += int64(2*len(s.anc)) * sliceHeaderBytes
	b += int64(2*len(s.anc)*s.words) * 8 // anc and desc share one mask array
	b += int64(len(s.convex))
	return b
}

// footprint estimates the interned lattice: the flat count/bitset arenas,
// the covering-edge table, the open-addressed intern table, idle run
// cursors and the memoized expansion enumerations. This is the dominant
// term on large-elevation workloads (a 150k-state space with its
// enumerations runs to hundreds of MB), which is exactly why the campaign
// cache re-estimates footprints as spaces grow. Every id-indexed table is
// counted at its capacity, so a core is charged for its whole reservation
// (downsetCore.reserve) as soon as it makes it.
func (c *downsetCore) footprint() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b int64
	// Flat arenas: counts bytes, membership bitset words, covering edges,
	// intern table slots.
	b += int64(cap(c.counts)) + int64(cap(c.bits))*8 + int64(cap(c.succ))*4 + int64(cap(c.table))*4
	// size and dfsSeen (int32 each), plus the id-indexed tables of the
	// idle run cursors kept for reuse.
	b += int64(cap(c.size)+cap(c.dfsSeen)) * 4
	c.idleMu.Lock()
	for _, r := range c.idle {
		b += r.footprint()
	}
	c.idleMu.Unlock()
	// Expansion memo: one fixed entry per state plus the cached enumerations
	// (packed at their exact length) and the DFS's reused working buffer.
	b += int64(cap(c.exp)) * (sliceHeaderBytes + 16)
	for i := range c.exp {
		b += int64(len(c.exp[i].packed)) * 8
	}
	b += int64(cap(c.dfsBuf)) * 16
	// Static per-stage tables: levelOf, posInLevel, weights, preds.
	nStages := int64(len(c.levelOf))
	b += nStages * 3 * 8
	for _, p := range c.preds {
		b += sliceHeaderBytes + int64(len(p))*8
	}
	return b
}

// viewFootprint estimates the per-scale half of a downset view (the cut
// cache); the shared core is counted by the family.
func (ds *DownsetSpace) viewFootprint() int64 {
	ds.cutMu.Lock()
	defer ds.cutMu.Unlock()
	return sliceHeaderBytes + int64(cap(ds.coutCache))*8
}

// footprint estimates a run cursor's tables: run index -> id, and the
// id-indexed int32 epoch stamps and run indices.
func (r *Run) footprint() int64 {
	return 3*sliceHeaderBytes + int64(cap(r.ids))*8 + int64(cap(r.seen)+cap(r.indexOf))*4
}
