package core

import (
	"math"
	"strconv"
	"sync"

	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// This file lifts DPA2D's rectangle tables out of the per-call engine2D and
// into caches shared across every solver run on a workload family, hanging
// off the scale family's shared spg.Analysis through its Aux hook. Two
// structures are shared, at two different scopes:
//
//   - Speed thresholds (cross-period). The speed-index component of ecal —
//     the slowest speed able to process a rectangle's work within the period
//     — is monotone in T: tightening the period can only push the index up.
//     For each rectangle, whose work is fixed, the minimal period at which
//     each ladder speed becomes feasible is computed once and reused across
//     every period division of the selection protocol, every CCR variant
//     (rectangle work is a stage-weight sum, untouched by volume rescaling)
//     and every heuristic on the same energy ladder (DPA2D and DPA2D1D).
//     Thresholds reproduce the platform.MinFeasibleSpeed verdict bit for
//     bit: the feasibility predicate work <= T*s*(1+1e-12) is monotone in T
//     (IEEE multiplication by a positive constant is monotone), so the exact
//     float boundary is well defined and located by ulp refinement.
//
//   - Rectangle-energy snapshots (per period). The full ecal entry adds the
//     T-dependent leakage and dynamic terms, so energies are shared only
//     between engines probing the same period: DPA2D and DPA2D1D both run
//     at the period SelectPeriod returns and at the division that fails
//     after it (an intermediate division stops at its first success,
//     cheapest first) and probe overlapping band rectangles. Engines copy
//     the shared snapshot into a private table (keeping the DP's hot loop
//     lock-free), and publish their additions back when the solve finishes.
//     Entries are pure functions of (weights, energy ladder, T, rectangle),
//     so merging is conflict-free and bit-identical to local recomputation.
//
// Both caches key by the platform's energy signature (speeds, dynamic
// powers, leakage), not by platform identity: the uni-line virtual platform
// DPA2D1D synthesizes per call shares the real platform's ladder and
// therefore its tables.

// rectCacheKey is the Aux key under which the tables hang off the family's
// shared analysis.
type rectCacheKey struct{}

type rectCache struct {
	mu   sync.Mutex
	sigs map[string]*sigTables
}

// sigTables holds the tables of one (family, energy signature) pair.
type sigTables struct {
	mu sync.Mutex
	// thr[bandKey][rectIdx][speedIdx] is the minimal period at which the
	// ladder speed becomes feasible for the rectangle's work; rows are
	// allocated on first touch.
	thr map[int][][]float64
	// periods is a tiny most-recently-used list of per-period energy
	// snapshot tables; SelectPeriod probes at most ten periods, and
	// returns to the last successful one to complete it after the next
	// division fails, so a small cap bounds memory without evicting
	// anything a sweep still wants.
	periods []*periodTables
}

const maxPeriodTables = 12

// periodTables shares completed rectangle-energy entries between engines
// running at the same period.
type periodTables struct {
	T    float64
	mu   sync.Mutex
	ecal map[int][]float64 // band key -> (ymax+2)^2 entries, NaN = unknown
}

// appendHexFloat appends f's exact hexadecimal form, the collision-free
// float encoding the cache signatures are built from.
func appendHexFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'x', -1, 64)
}

// speedLadderSig fingerprints the platform's speed ladder — the single
// encoding shared by every cache key that depends on it (the DPA1D budget
// memo and, through energySig, the rectangle tables), so the fingerprints
// can never drift apart.
func speedLadderSig(pl *platform.Platform) string {
	var b []byte
	for _, s := range pl.Speeds {
		b = appendHexFloat(b, s)
		b = append(b, ',')
	}
	return string(b)
}

// energySig fingerprints the parts of a platform that ecal depends on.
func energySig(pl *platform.Platform) string {
	b := []byte(speedLadderSig(pl))
	b = append(b, ';')
	for _, p := range pl.DynPower {
		b = appendHexFloat(b, p)
		b = append(b, ',')
	}
	b = append(b, ';')
	b = appendHexFloat(b, pl.LeakPower)
	return string(b)
}

// MemoryFootprint implements spg.Footprinter so the rectangle tables
// participate in Analysis.MemoryFootprint (and through it in the campaign
// cache's byte account): threshold rows, period snapshot tables and the
// per-signature map overheads, with the same flat-constant approximations
// the spg estimates use.
func (rc *rectCache) MemoryFootprint() int64 {
	rc.mu.Lock()
	var b int64
	sigs := make([]*sigTables, 0, len(rc.sigs))
	//spglint:ignore detrange collects map values for a commutative sum; iteration order never reaches the result
	for sig, st := range rc.sigs {
		b += int64(len(sig)) + auxMapEntryBytes
		sigs = append(sigs, st)
	}
	rc.mu.Unlock()
	for _, st := range sigs {
		b += st.footprint()
	}
	return b
}

// Flat approximations matching the spg footprint constants.
const (
	auxSliceHeaderBytes = 24
	auxMapEntryBytes    = 48
)

func (st *sigTables) footprint() int64 {
	st.mu.Lock()
	var b int64
	for _, rows := range st.thr {
		b += auxMapEntryBytes + auxSliceHeaderBytes + int64(len(rows))*auxSliceHeaderBytes
		for _, row := range rows {
			b += int64(len(row)) * 8
		}
	}
	periods := append([]*periodTables(nil), st.periods...)
	st.mu.Unlock()
	for _, pt := range periods {
		pt.mu.Lock()
		for _, tab := range pt.ecal {
			b += auxMapEntryBytes + auxSliceHeaderBytes + int64(len(tab))*8
		}
		pt.mu.Unlock()
	}
	return b
}

// rectTablesFor returns the shared tables for an's scale family and pl's
// energy signature, creating them on first use.
func rectTablesFor(an *spg.Analysis, pl *platform.Platform) *sigTables {
	rc := an.Aux(rectCacheKey{}, func() any {
		return &rectCache{sigs: make(map[string]*sigTables)}
	}).(*rectCache)
	sig := energySig(pl)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	st := rc.sigs[sig]
	if st == nil {
		st = &sigTables{thr: make(map[int][][]float64)}
		rc.sigs[sig] = st
	}
	return st
}

// period returns the energy snapshot store for period T, creating it on
// first use and keeping the list in most-recently-used order.
func (st *sigTables) period(T float64) *periodTables {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, pt := range st.periods {
		if pt.T == T {
			copy(st.periods[1:i+1], st.periods[:i])
			st.periods[0] = pt
			return pt
		}
	}
	pt := &periodTables{T: T, ecal: make(map[int][]float64)}
	st.periods = append(st.periods, nil)
	copy(st.periods[1:], st.periods)
	st.periods[0] = pt
	if len(st.periods) > maxPeriodTables {
		st.periods = st.periods[:maxPeriodTables]
	}
	return pt
}

// speedFeasible is the platform.MinFeasibleSpeed predicate, verbatim.
func speedFeasible(work, s, T float64) bool {
	return work <= T*s*(1+1e-12)
}

// minFeasiblePeriod returns the smallest positive float64 period at which
// speed s can process work — the exact boundary of the speedFeasible
// predicate, located by ulp refinement around the real-arithmetic estimate.
func minFeasiblePeriod(work, s float64) float64 {
	if work <= 0 {
		return 0
	}
	t := work / (s * (1 + 1e-12))
	for !speedFeasible(work, s, t) {
		t = math.Nextafter(t, math.Inf(1))
	}
	for {
		t2 := math.Nextafter(t, 0)
		if t2 > 0 && speedFeasible(work, s, t2) {
			t = t2
		} else {
			break
		}
	}
	return t
}

// speedIdx returns the index of the slowest feasible speed for a rectangle
// with the given work at period T, or -1 when even the fastest is too slow —
// exactly platform.MinFeasibleSpeed's verdict, answered from the cross-period
// threshold table. bandKey/rectIdx address the rectangle; rects is the table
// width (the per-band rectangle count, identical across the family).
func (st *sigTables) speedIdx(bandKey, rectIdx, rects int, work, T float64, pl *platform.Platform) int {
	if work < 0 || T <= 0 {
		return -1
	}
	st.mu.Lock()
	rows := st.thr[bandKey]
	if rows == nil {
		rows = make([][]float64, rects)
		st.thr[bandKey] = rows
	}
	row := rows[rectIdx]
	if row == nil {
		row = make([]float64, len(pl.Speeds))
		for i, s := range pl.Speeds {
			row[i] = minFeasiblePeriod(work, s)
		}
		rows[rectIdx] = row
	}
	st.mu.Unlock()
	for i, tmin := range row {
		if T >= tmin {
			return i
		}
	}
	return -1
}

// snapshotInto fills tab — a caller-supplied (typically arena-backed) table —
// with a private copy of the shared energy entries for a band, NaN-filled
// where no engine has computed an entry yet, and returns it. The copy runs
// under the lock so a concurrent publish's NaN->value fill can never be seen
// half-written; which side of a racing fill the copy lands on is invisible
// anyway, since the engine would recompute a missing entry to identical bits.
func (pt *periodTables) snapshotInto(bandKey int, tab []float64) []float64 {
	pt.mu.Lock()
	src := pt.ecal[bandKey]
	if src != nil {
		copy(tab, src)
	}
	pt.mu.Unlock()
	if src != nil {
		return tab
	}
	for i := range tab {
		tab[i] = math.NaN()
	}
	return tab
}

// publish merges an engine's completed entries back into the shared table.
// Entries are pure functions of the rectangle, so a concurrent engine can
// only have computed the identical value; first write wins.
func (pt *periodTables) publish(bandKey int, tab []float64) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	dst := pt.ecal[bandKey]
	if dst == nil {
		dst = make([]float64, len(tab))
		copy(dst, tab)
		pt.ecal[bandKey] = dst
		return
	}
	for i, v := range tab {
		if !math.IsNaN(v) && math.IsNaN(dst[i]) {
			dst[i] = v
		}
	}
}
