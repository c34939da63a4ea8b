package spg

import (
	"errors"
	"testing"
)

func footprintGraph(t *testing.T) *Graph {
	t.Helper()
	weights := make([]float64, 24)
	vols := make([]float64, 23)
	for i := range weights {
		weights[i] = 0.02
	}
	g, err := Chain(weights, vols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMemoryFootprintGrowsWithStructures: an empty analysis charges only the
// graph; every structure built afterwards strictly increases the estimate,
// and probing never builds anything (the estimate is stable across repeated
// calls on an untouched analysis).
func TestMemoryFootprintGrowsWithStructures(t *testing.T) {
	an := NewAnalysis(footprintGraph(t))
	base := an.MemoryFootprint()
	if base <= 0 {
		t.Fatalf("fresh analysis footprint = %d", base)
	}
	if again := an.MemoryFootprint(); again != base {
		t.Fatalf("probing built something: %d -> %d", base, again)
	}

	an.Reachability()
	afterReach := an.MemoryFootprint()
	if afterReach <= base {
		t.Errorf("reachability did not grow the footprint: %d -> %d", base, afterReach)
	}

	an.LabelPrefixSums()
	an.InVolumes()
	an.Band(1, an.Depth())
	afterBands := an.MemoryFootprint()
	if afterBands <= afterReach {
		t.Errorf("bands/prefix sums did not grow the footprint: %d -> %d", afterReach, afterBands)
	}

	ds, err := an.DownsetSpace(10_000)
	if err != nil {
		t.Fatal(err)
	}
	afterSpace := an.MemoryFootprint()
	if afterSpace <= afterBands {
		t.Errorf("downset space did not grow the footprint: %d -> %d", afterBands, afterSpace)
	}

	// Enumeration keeps interning states: the estimate must track growth,
	// which is why the cache re-estimates on every hit.
	if _, err := expandEmpty(ds, 1e18); err != nil {
		t.Fatal(err)
	}
	afterEnum := an.MemoryFootprint()
	if afterEnum <= afterSpace {
		t.Errorf("enumeration did not grow the footprint: %d -> %d", afterSpace, afterEnum)
	}
	// Each interned state carries one covering-edge slot per level.
	if edges := int64(4 * ds.core.stride * ds.InternedCount()); afterEnum-afterSpace < edges {
		t.Errorf("enumeration grew the footprint by %d, less than its %d bytes of covering edges", afterEnum-afterSpace, edges)
	}
}

// TestMemoryFootprintScaleFamily: a scaled member's volume-dependent half is
// charged to the base that retains it, and asking the member itself counts
// the shared structural half exactly once.
func TestMemoryFootprintScaleFamily(t *testing.T) {
	base := NewAnalysis(footprintGraph(t))
	base.Reachability()
	before := base.MemoryFootprint()

	scaled := base.ScaleToCCR(10)
	scaled.InVolumes()
	after := base.MemoryFootprint()
	if after <= before {
		t.Errorf("scaled member not charged to its base: %d -> %d", before, after)
	}

	// The member's own estimate includes the shared half once, so it lies
	// between the member-only delta and the base total.
	if m := scaled.MemoryFootprint(); m <= 0 || m > after {
		t.Errorf("member footprint %d out of range (base total %d)", m, after)
	}
}

// TestMemoryFootprintNilSafety: nil receivers and nil-graph analyses answer
// zero instead of panicking (the cache probes whatever it stored).
func TestMemoryFootprintNilSafety(t *testing.T) {
	var nilAn *Analysis
	if got := nilAn.MemoryFootprint(); got != 0 {
		t.Errorf("nil analysis footprint = %d", got)
	}
	if got := NewAnalysis(nil).MemoryFootprint(); got != 0 {
		t.Errorf("nil-graph analysis footprint = %d", got)
	}
}

type testAux struct{ bytes int64 }

func (a *testAux) MemoryFootprint() int64 { return a.bytes }

// TestMemoryFootprintAuxParticipation: Aux values implementing Footprinter
// contribute their own accounting, once per family: a scaled member sees
// the same value.
func TestMemoryFootprintAuxParticipation(t *testing.T) {
	an := NewAnalysis(footprintGraph(t))
	member := an.ScaleToCCR(2)
	before := an.MemoryFootprint()
	an.Aux("fam", func() any { return &testAux{bytes: 1 << 20} })
	member.Aux("fam", func() any { return &testAux{bytes: 1 << 10} })
	got := an.MemoryFootprint()
	want := before + 1<<20
	if got != want {
		t.Errorf("aux-inclusive footprint = %d, want %d", got, want)
	}
}

// TestMemoryFootprintPresizedLattice: a lattice whose per-level bound is
// not small gets a capacity from its SP-tree count. A run that interns
// fewer than smallLattice states reserves nothing; one that interns past
// it reserves the whole capacity, so interning the rest of its budget
// grows nothing, and the footprint charges the reservation. A chain's
// small lattice has no capacity.
func TestMemoryFootprintPresizedLattice(t *testing.T) {
	if ds := newSpace(t, footprintGraph(t), 10_000); ds.core.capacity != 0 {
		t.Errorf("a 24-stage chain's lattice has a capacity of %d states", ds.core.capacity)
	}

	const branches = 14
	middle, vols := make([]float64, branches), make([]float64, branches)
	for i := range middle {
		middle[i], vols[i] = 0.01, 0.001
	}
	g, err := ForkJoin(0.01, 0.01, middle, vols, vols)
	if err != nil {
		t.Fatal(err)
	}
	space := func() (*Analysis, *DownsetSpace) {
		an := NewAnalysis(g)
		ds, err := an.DownsetSpace(10_000)
		if err != nil {
			t.Fatal(err)
		}
		return an, ds
	}
	an, ds := space()
	if got, want := an.DownsetCount(), uint64(1<<branches+2); got != want {
		t.Fatalf("a %d-branch fork-join counts %d downsets, want %d", branches, got, want)
	}
	c := ds.core
	if c.capacity != 10_001 {
		t.Fatalf("capacity %d states, want min(count, budget)+1 = 10001", c.capacity)
	}
	// Chunks of at most three stages: a few hundred states.
	if _, err := expandEmpty(ds, 0.035); err != nil {
		t.Fatal(err)
	}
	if n := ds.InternedCount(); n >= smallLattice || c.reserved.Load() || cap(c.size) >= c.capacity {
		t.Fatalf("a run interning %d states reserved %v (size capacity %d)", n, c.reserved.Load(), cap(c.size))
	}

	an, ds = space()
	c = ds.core
	before := an.MemoryFootprint()
	if _, err := expandEmpty(ds, 1e18); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("expanding %d downsets on a 10,000-state budget: %v, want ErrStateLimit", an.DownsetCount(), err)
	}
	if n := ds.InternedCount(); n != 10_000 {
		t.Fatalf("the lattice holds %d states, want the run's whole budget", n)
	}
	if !c.reserved.Load() {
		t.Fatal("a run past smallLattice states did not reserve the capacity")
	}
	arenas := [...][2]int{
		{cap(c.counts), c.stride}, {cap(c.bits), c.words}, {cap(c.succ), c.stride},
		{cap(c.size), 1}, {cap(c.exp), 1}, {cap(c.dfsSeen), 1},
	}
	for i, a := range arenas {
		if a[0] < c.capacity*a[1] {
			t.Errorf("arena %d holds %d entries, want the capacity's %d", i, a[0], c.capacity*a[1])
		}
	}
	if len(c.table)*3 < c.capacity*4 {
		t.Errorf("intern table of %d slots passes 75%% load at %d states", len(c.table), c.capacity)
	}
	perState := int64(c.stride + 8*c.words + 4*c.stride + 4 + 4 + sliceHeaderBytes + 16)
	if grown, reserved := an.MemoryFootprint()-before, int64(c.capacity-smallLattice)*perState; grown < reserved {
		t.Errorf("the reservation grew the footprint by %d, less than %d", grown, reserved)
	}
	// The run that reserved is idle now, its tables sized for the capacity.
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	for _, r := range c.idle {
		if cap(r.ids) < c.capacity || len(r.seen) < c.capacity || len(r.indexOf) < c.capacity {
			t.Errorf("idle cursor tables %d/%d/%d, want all sized %d", cap(r.ids), len(r.seen), len(r.indexOf), c.capacity)
		}
	}
}
