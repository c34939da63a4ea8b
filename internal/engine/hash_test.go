package engine

import (
	"reflect"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/spg"
)

// goldenInline is the inline graph the golden digests pin: a three-stage
// chain whose source name needs JSON escaping, so the pins also cover the
// exact bytes the inline variant hashes.
func goldenInline(t testing.TB) *spg.Graph {
	t.Helper()
	g, err := spg.Chain([]float64{0.02, 0.03, 0.04}, []float64{0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	g.Stages[0].Name = "src<&>"
	return g
}

// TestContentKeyGolden pins the canonical CellSpec content hash. These
// digests are the result store's address space: if any of them changes, the
// serialization drifted and every stored outcome in a running fleet would be
// silently orphaned (or worse, re-keyed). Bump contentKeyVersion and update
// the digests only with a deliberate, documented format change.
func TestContentKeyGolden(t *testing.T) {
	cases := []struct {
		name string
		spec CellSpec
		want string
	}{
		{
			name: "streamit",
			spec: CellSpec{Key: "a", CacheKey: "x", Workload: WorkloadSpec{StreamIt: "DCT"}, ScaleCCR: true, CCR: 0.5, P: 2, Q: 2, Opts: core.Options{Seed: 42}},
			want: "v1-918b6c21f5b8bdb7193ab689ea372ae8",
		},
		{
			name: "random",
			spec: CellSpec{Workload: WorkloadSpec{Random: &RandomWorkload{N: 12, Elevation: 3, Seed: 7, CCR: 1}}, P: 3, Q: 3, Opts: core.Options{Seed: 1, RandomTrials: 5, KeepMappings: true}},
			want: "v1-5befbba41edd23dcf499af6f7d75ee6e",
		},
		{
			name: "streamit-budgets",
			spec: CellSpec{Workload: WorkloadSpec{StreamIt: "FFT"}, ScaleCCR: true, CCR: 2, P: 4, Q: 4, MaxDivisions: 9, Opts: core.Options{DPA1DMaxStates: 100, DPA1DMaxTransitions: 200}},
			want: "v1-2f5e1ad2f1d71241ca76b182c2c473b7",
		},
		{
			name: "inline",
			spec: CellSpec{Workload: WorkloadSpec{Inline: goldenInline(t)}, P: 1, Q: 2, Opts: core.Options{Seed: 1}},
			want: "v1-3944c41e6790ff4f7d154740230a7620",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.spec.ContentKey()
			if err != nil {
				t.Fatalf("ContentKey: %v", err)
			}
			if got != tc.want {
				t.Fatalf("ContentKey drifted: got %q, want %q — if this change is deliberate, bump contentKeyVersion and repin", got, tc.want)
			}
		})
	}
}

// TestFamilyKeyGolden pins the analysis-cache family identity of each
// workload variant. A drifted key would split (or alias) the family entries
// that every worker and campaign share.
func TestFamilyKeyGolden(t *testing.T) {
	cases := []struct {
		name     string
		workload WorkloadSpec
		want     string
	}{
		{"streamit", WorkloadSpec{StreamIt: "DCT"}, "streamit/DCT/n=8/y=1/x=8"},
		{"random", WorkloadSpec{Random: &RandomWorkload{N: 12, Elevation: 3, Seed: 7, CCR: 1}}, "randspg/n=12/y=3/seed=7/ccr=0x1p+00"},
		{"inline", WorkloadSpec{Inline: goldenInline(t)}, "spec/inline/604c213db748aed5c125b6d647b29fc8"},
	}
	for _, tc := range cases {
		got, err := tc.workload.FamilyKey()
		if err != nil {
			t.Fatalf("%s: FamilyKey: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: FamilyKey drifted: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestContentKeyExclusions: the addressing fields (Key, CacheKey) must not
// reach the hash, so identical work deduplicates across campaigns regardless
// of how it was addressed; MaxDivisions hashes resolved, so 0 and the
// explicit default describe the same work.
func TestContentKeyExclusions(t *testing.T) {
	base := CellSpec{Key: "k1", CacheKey: "c1", Workload: WorkloadSpec{StreamIt: "FFT"}, ScaleCCR: true, CCR: 2, P: 4, Q: 4, MaxDivisions: DefaultMaxDivisions, Opts: core.Options{DPA1DMaxStates: 100}}
	want, err := base.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	same := base
	same.Key = "k2"
	same.CacheKey = "c2"
	same.MaxDivisions = 0
	if got, err := same.ContentKey(); err != nil || got != want {
		t.Fatalf("excluded fields changed the key: %q vs %q (err %v)", got, want, err)
	}
}

// TestContentKeySensitivity: every result-affecting field must move the key.
func TestContentKeySensitivity(t *testing.T) {
	base := CellSpec{Workload: WorkloadSpec{StreamIt: "FFT"}, ScaleCCR: true, CCR: 2, P: 4, Q: 4, Opts: core.Options{Seed: 1}}
	want, err := base.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*CellSpec){
		"workload":      func(s *CellSpec) { s.Workload = WorkloadSpec{StreamIt: "DCT"} },
		"scale_ccr":     func(s *CellSpec) { s.ScaleCCR = false },
		"ccr":           func(s *CellSpec) { s.CCR = 2.5 },
		"p":             func(s *CellSpec) { s.P = 3 },
		"q":             func(s *CellSpec) { s.Q = 3 },
		"max_divisions": func(s *CellSpec) { s.MaxDivisions = 5 },
		"seed":          func(s *CellSpec) { s.Opts.Seed = 2 },
		"random_trials": func(s *CellSpec) { s.Opts.RandomTrials = 3 },
		"dpa1d_states":  func(s *CellSpec) { s.Opts.DPA1DMaxStates = 10 },
		"dpa1d_trans":   func(s *CellSpec) { s.Opts.DPA1DMaxTransitions = 10 },
		"keep_mappings": func(s *CellSpec) { s.Opts.KeepMappings = true },
	}
	for name, mutate := range mutations {
		s := base
		mutate(&s)
		got, err := s.ContentKey()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == want {
			t.Errorf("mutating %s did not change the content key", name)
		}
	}
}

// TestContentKeyCoversOptions fails when core.Options gains a field, forcing
// whoever adds one to decide whether it affects results (hash it in
// ContentKey) or not (add it to the exclusion list there) — and to extend
// this list either way. Silent drift here would alias distinct work in the
// result store.
func TestContentKeyCoversOptions(t *testing.T) {
	known := map[string]bool{
		"Seed":                true, // hashed
		"RandomTrials":        true, // hashed
		"DPA1DMaxStates":      true, // hashed
		"DPA1DMaxTransitions": true, // hashed
		"KeepMappings":        true, // hashed: changes the result payload
	}
	rt := reflect.TypeOf(core.Options{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if _, ok := known[name]; !ok {
			t.Errorf("core.Options.%s is not accounted for in CellSpec.ContentKey — hash it or document its exclusion, then extend this list", name)
		}
		delete(known, name)
	}
	for name := range known {
		t.Errorf("core.Options.%s no longer exists; prune it from ContentKey and this list", name)
	}
}

// TestContentKeyMalformed: a workload that cannot be lowered onto the
// (kind, params) plane cannot be content-addressed.
func TestContentKeyMalformed(t *testing.T) {
	s := CellSpec{P: 2, Q: 2} // no workload variant set
	if _, err := s.ContentKey(); err == nil {
		t.Fatal("expected an error for a spec without a workload")
	}
	s.Workload = WorkloadSpec{StreamIt: "FFT", Random: &RandomWorkload{N: 5, Elevation: 1}}
	if _, err := s.ContentKey(); err == nil {
		t.Fatal("expected an error for a spec with two variants")
	}
}
