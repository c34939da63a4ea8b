package spg

import "testing"

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

// TestMemoryFootprintAuxParticipation: Aux and MemberAux values implementing
// Footprinter contribute their own accounting.
func TestMemoryFootprintAuxParticipation(t *testing.T) {
	an := NewAnalysis(footprintGraph(t))
	before := an.MemoryFootprint()
	an.Aux("fam", func() any { return &testAux{bytes: 1 << 20} })
	an.MemberAux("mem", func() any { return &testAux{bytes: 1 << 10} })
	got := an.MemoryFootprint()
	want := before + 1<<20 + 1<<10
	if got != want {
		t.Errorf("aux-inclusive footprint = %d, want %d", got, want)
	}
}
