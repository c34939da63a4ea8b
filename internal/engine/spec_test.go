package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/spg"
)

// TestCellSpecJSONRoundTrip: every workload variant must survive the wire
// bit-exactly — the spec is the cell-range protocol's unit of work.
func TestCellSpecJSONRoundTrip(t *testing.T) {
	inline, err := spg.Chain([]float64{0.02, 0.03, 0.04}, []float64{0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	specs := []CellSpec{
		{
			Key:      "streamit/FFT/ccr=1/2x2",
			CacheKey: "streamit/FFT",
			Workload: WorkloadSpec{StreamIt: "FFT"},
			ScaleCCR: true,
			CCR:      1,
			P:        2, Q: 2,
			Opts: core.Options{Seed: 42, DPA1DMaxStates: 60_000},
		},
		{
			Key:      "randspg/n=20/y=3/seed=7/2x2",
			CacheKey: "randspg/n=20/y=3/seed=7",
			Workload: WorkloadSpec{Random: &RandomWorkload{N: 20, Elevation: 3, Seed: 7, CCR: 0.1}},
			P:        2, Q: 2,
			MaxDivisions: 3,
			Opts:         core.Options{Seed: 7, KeepMappings: true},
		},
		{
			Key:      "inline/chain3",
			Workload: WorkloadSpec{Inline: inline},
			P:        1, Q: 2,
			Opts: core.Options{Seed: 1},
		},
	}
	for _, want := range specs {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: marshal: %v", want.Key, err)
		}
		var got CellSpec
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: unmarshal: %v", want.Key, err)
		}
		if !reflect.DeepEqual(stripInline(got), stripInline(want)) {
			t.Errorf("%s: round trip drifted:\n got %+v\nwant %+v", want.Key, got, want)
		}
		if want.Workload.Inline != nil {
			// Graphs compare by content, not pointer.
			gi, wi := got.Workload.Inline, want.Workload.Inline
			if !reflect.DeepEqual(gi.Stages, wi.Stages) || !reflect.DeepEqual(gi.Edges, wi.Edges) {
				t.Errorf("%s: inline graph drifted", want.Key)
			}
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: round-tripped spec invalid: %v", want.Key, err)
		}
	}
}

// stripInline clears the inline graph pointer so DeepEqual compares the rest
// of the spec (graphs carry private lazily-built caches).
func stripInline(s CellSpec) CellSpec {
	s.Workload.Inline = nil
	return s
}

// TestSpecValidate: malformed specs are rejected without building anything.
func TestSpecValidate(t *testing.T) {
	chain := func(n int) *spg.Graph {
		g, err := spg.Chain(make([]float64, n), make([]float64, n-1))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, ok := range []CellSpec{
		{Key: "k", Workload: WorkloadSpec{StreamIt: "FFT"}, P: 2, Q: 2},
		{Key: "largest-random", Workload: WorkloadSpec{Random: &RandomWorkload{N: MaxStages, Elevation: 1}}, P: 2, Q: 2},
		{Key: "largest-inline", Workload: WorkloadSpec{Inline: chain(MaxStages)}, P: 2, Q: 2},
		{Key: "largest-budget", Workload: WorkloadSpec{StreamIt: "FFT"}, P: 2, Q: 2, Opts: core.Options{DPA1DMaxStates: core.MaxDPA1DStates}},
	} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("%s: valid spec rejected: %v", ok.Key, err)
		}
	}
	bad := []CellSpec{
		{Key: "no-workload", P: 2, Q: 2},
		{Key: "random-over-limit", Workload: WorkloadSpec{Random: &RandomWorkload{N: MaxStages + 1, Elevation: 1}}, P: 2, Q: 2},
		{Key: "inline-over-limit", Workload: WorkloadSpec{Inline: chain(MaxStages + 1)}, P: 2, Q: 2},
		{Key: "random-one-stage", Workload: WorkloadSpec{Random: &RandomWorkload{N: 1, Elevation: 1}}, P: 2, Q: 2},
		{Key: "random-flat", Workload: WorkloadSpec{Random: &RandomWorkload{N: 5, Elevation: 0}}, P: 2, Q: 2},
		{Key: "random-negative-ccr", Workload: WorkloadSpec{Random: &RandomWorkload{N: 5, Elevation: 1, CCR: -1}}, P: 2, Q: 2},
		{Key: "two-variants", Workload: WorkloadSpec{StreamIt: "FFT", Random: &RandomWorkload{N: 5, Elevation: 1}}, P: 2, Q: 2},
		{Key: "bad-grid", Workload: WorkloadSpec{StreamIt: "FFT"}, P: 0, Q: 2},
		{Key: "budget-over-limit", Workload: WorkloadSpec{StreamIt: "FFT"}, P: 2, Q: 2, Opts: core.Options{DPA1DMaxStates: core.MaxDPA1DStates + 1}},
		{Key: "budget-int32", Workload: WorkloadSpec{StreamIt: "FFT"}, P: 2, Q: 2, Opts: core.Options{DPA1DMaxStates: 1<<31 - 1}},
		{Key: "budget-negative", Workload: WorkloadSpec{StreamIt: "FFT"}, P: 2, Q: 2, Opts: core.Options{DPA1DMaxStates: -1}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", s.Key)
		}
	}
	if _, err := (WorkloadSpec{StreamIt: "NoSuchApp"}).Build(); err == nil {
		t.Error("unknown StreamIt app built")
	}
}

// TestSpecMaxDivisions: the period-division cap is part of the declarative
// identity — on a workload light enough that divisions keep succeeding, a
// capped spec must stop exactly where its cap says, above where the default
// protocol descends to.
func TestSpecMaxDivisions(t *testing.T) {
	tiny, err := spg.Chain([]float64{1e-6, 1e-6}, []float64{1e-9})
	if err != nil {
		t.Fatal(err)
	}
	base := CellSpec{
		Key:      "inline/tiny",
		Workload: WorkloadSpec{Inline: tiny},
		P:        2, Q: 2,
		Opts: core.Options{Seed: 1},
	}
	full := Solve(base.Cell(), nil)
	capped := base
	capped.MaxDivisions = 1
	one := Solve(capped.Cell(), nil)
	if full.Err != nil || one.Err != nil || !full.Feasible || !one.Feasible {
		t.Fatalf("solves failed: %+v / %+v", full, one)
	}
	if one.Result.Period != 0.1 {
		t.Errorf("one-division protocol stopped at period %g, want 0.1", one.Result.Period)
	}
	if full.Result.Period >= one.Result.Period {
		t.Errorf("default protocol stopped at %g, expected below the capped %g", full.Result.Period, one.Result.Period)
	}
}

// TestWireCellResultRoundTrip: results survive the wire bit-exactly,
// including the error-as-message lowering.
func TestWireCellResultRoundTrip(t *testing.T) {
	cells := testCells(t)
	want := Solve(cells[0], nil)
	data, err := json.Marshal(want.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w WireCellResult
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	got := w.CellResult(want.Index)
	requireSameResults(t, "wire-round-trip", []CellResult{got}, []CellResult{want})

	// Elevation 30 on 8 stages is unsatisfiable: generation fails.
	bad := CellSpec{Key: "bad", Workload: WorkloadSpec{Random: &RandomWorkload{N: 8, Elevation: 30, Seed: 3}}, P: 2, Q: 2}.Cell()
	res := Solve(bad, nil)
	if res.Err == nil {
		t.Fatal("unsatisfiable workload built")
	}
	wireBad := res.Wire()
	data, err = json.Marshal(wireBad)
	if err != nil {
		t.Fatal(err)
	}
	var wb WireCellResult
	if err := json.Unmarshal(data, &wb); err != nil {
		t.Fatal(err)
	}
	back := wb.CellResult(0)
	if back.Err == nil || back.Err.Error() != res.Err.Error() {
		t.Errorf("error crossed the wire as %v, want %v", back.Err, res.Err)
	}
}

// TestKeepMappingsWire: with KeepMappings the outcomes carry placements that
// survive the wire and rebuild into valid mappings; without it the outcome
// JSON stays lean.
func TestKeepMappingsWire(t *testing.T) {
	spec := testCells(t)[0].Spec
	spec.Opts.KeepMappings = true
	res := Solve(spec.Cell(), nil)
	if res.Err != nil || !res.Feasible {
		t.Fatalf("solve failed: %+v", res)
	}
	data, err := json.Marshal(res.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w WireCellResult
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	for _, o := range w.Result.Outcomes {
		if !o.OK {
			continue
		}
		if o.Mapping == nil {
			t.Fatalf("%s: OK outcome without mapping", o.Heuristic)
		}
		if o.Mapping.P != spec.P || o.Mapping.Q != spec.Q {
			t.Errorf("%s: mapping targets %dx%d, want %dx%d", o.Heuristic, o.Mapping.P, o.Mapping.Q, spec.P, spec.Q)
		}
		if len(o.Mapping.Alloc) == 0 || len(o.Mapping.Cores) == 0 {
			t.Errorf("%s: empty wire mapping", o.Heuristic)
		}
	}
	plain := Solve(testCells(t)[0], nil)
	for _, o := range plain.Result.Outcomes {
		if o.Mapping != nil {
			t.Errorf("%s: mapping retained without KeepMappings", o.Heuristic)
		}
	}
}

// TestExecuteSpecsSanitizesCacheKeys: a wire spec claiming another family's
// cache key must not poison the shared cache — the worker path re-derives
// the key from the workload content, so the later honest FFT solve still
// sees FFT, bit-identically to a cache-free run.
func TestExecuteSpecsSanitizesCacheKeys(t *testing.T) {
	cache := NewAnalysisCache(8)
	poison := CellSpec{
		Key:      "poison",
		CacheKey: "streamit/FFT",                // claims FFT's family...
		Workload: WorkloadSpec{StreamIt: "DCT"}, // ...but names DCT
		ScaleCCR: true, CCR: 1,
		P: 2, Q: 2,
		Opts: core.Options{Seed: 1},
	}
	if _, err := ExecuteSpecs(context.Background(), nil, []CellSpec{poison}, cache, nil); err != nil {
		t.Fatal(err)
	}
	fft := CellSpec{
		Key:      "fft",
		CacheKey: "streamit/FFT",
		Workload: WorkloadSpec{StreamIt: "FFT"},
		ScaleCCR: true, CCR: 1,
		P: 2, Q: 2,
		Opts: core.Options{Seed: 2},
	}.Cell()
	got := Solve(fft, cache)
	want := Solve(fft, nil)
	requireSameResults(t, "post-poison-fft", []CellResult{got}, []CellResult{want})

	// Equal workloads still share one derived key (sharing is preserved).
	k1, err := (WorkloadSpec{StreamIt: "DCT"}).FamilyKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := (WorkloadSpec{StreamIt: "DCT"}).FamilyKey()
	if err != nil || k1 != k2 {
		t.Fatalf("family keys not stable: %q vs %q (%v)", k1, k2, err)
	}
	k3, err := (WorkloadSpec{Random: &RandomWorkload{N: 10, Elevation: 2, Seed: 5}}).FamilyKey()
	if err != nil || k3 == k1 {
		t.Fatalf("distinct workloads share key %q (%v)", k3, err)
	}
}

// decodeSpec decodes one cell spec the way the worker endpoint does:
// unknown fields are errors.
func decodeSpec(data []byte) (CellSpec, error) {
	var s CellSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	return s, err
}

// FuzzCellSpec fuzzes the cell-spec wire form. On any body the strict
// decoder accepts, decode→encode→decode is the identity (the second decode
// re-encodes to the same bytes), ContentKey and FamilyKey survive the round
// trip unchanged, and Validate, ContentKey and FamilyKey never panic.
func FuzzCellSpec(f *testing.F) {
	for _, s := range []CellSpec{
		{Key: "s", CacheKey: "streamit/FFT", Workload: WorkloadSpec{StreamIt: "FFT"}, ScaleCCR: true, CCR: 1, P: 2, Q: 2, Opts: core.Options{Seed: 42, DPA1DMaxStates: 60_000}},
		{Key: "r", CacheKey: "c", Workload: WorkloadSpec{Random: &RandomWorkload{N: 12, Elevation: 3, Seed: 7, CCR: 1}}, P: 3, Q: 3, MaxDivisions: 3, Opts: core.Options{Seed: 1, KeepMappings: true}},
		{Key: "i", Workload: WorkloadSpec{Inline: goldenInline(f)}, P: 1, Q: 2, Opts: core.Options{Seed: 1}},
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"key":"k","workload":{"streamit":"DCT","random":{"n":5,"elevation":1}},"p":2,"q":2}`))
	f.Add([]byte(`{"key":"k","workload":{"inline":{"stages":[{"weight":-0,"x":1,"y":1,"name":"é\ud800"}],"edges":[]}},"p":0}`))
	f.Add([]byte(`{"key":"k","workload":{"random":{"n":5,"elevation":1,"weight_min":0.5}},"p":2,"q":2,"opts":{"random_trials":3}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSpec(data)
		if err != nil {
			return
		}
		validErr := s.Validate()
		key, keyErr := s.ContentKey()
		fam, famErr := s.Workload.FamilyKey()
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		back, err := decodeSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", enc, err)
		}
		again, err := json.Marshal(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round trip drifted (err %v):\n got %s\nwant %s", err, again, enc)
		}
		if err := back.Validate(); (err == nil) != (validErr == nil) {
			t.Fatalf("Validate changed across the round trip: %v vs %v", validErr, err)
		}
		if k, err := back.ContentKey(); k != key || (err == nil) != (keyErr == nil) {
			t.Fatalf("ContentKey changed across the round trip: %q (%v) vs %q (%v)", key, keyErr, k, err)
		}
		if k, err := back.Workload.FamilyKey(); k != fam || (err == nil) != (famErr == nil) {
			t.Fatalf("FamilyKey changed across the round trip: %q (%v) vs %q (%v)", fam, famErr, k, err)
		}
	})
}
