package workload_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spgcmp/internal/experiments"
	"spgcmp/internal/spg"
	"spgcmp/internal/workload"
)

// load resolves a workload flag the way the command-line tools do: parse,
// lower onto the engine cell, build its analysis.
func load(spec string, ccr float64) (*spg.Graph, error) {
	s, err := workload.Parse(spec)
	if err != nil {
		return nil, err
	}
	cell, err := experiments.FlagCell(s, ccr, 1, 1, 0)
	if err != nil {
		return nil, err
	}
	an, err := cell.Spec.Analyze()
	if err != nil {
		return nil, err
	}
	return an.Graph(), nil
}

func TestLoadStreamIt(t *testing.T) {
	g, err := load("streamit:DCT", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 || g.Elevation() != 1 {
		t.Errorf("DCT: n=%d ymax=%d", g.N(), g.Elevation())
	}
}

func TestLoadRandom(t *testing.T) {
	g, err := load("random:n=30,elev=4,seed=9", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 30 || g.Elevation() != 4 {
		t.Errorf("random: n=%d ymax=%d", g.N(), g.Elevation())
	}
}

func TestLoadRandomDefaults(t *testing.T) {
	s, err := workload.Parse("random:")
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 50 || s.Elevation != 5 || s.Seed != 1 {
		t.Errorf("random defaults: %+v", s)
	}
	s, err = workload.Parse("chain:")
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 || s.Seed != 1 {
		t.Errorf("chain defaults: %+v", s)
	}
	g, err := load("random:", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 50 || g.Elevation() != 5 {
		t.Errorf("defaults: n=%d ymax=%d", g.N(), g.Elevation())
	}
}

func TestLoadChain(t *testing.T) {
	g, err := load("chain:n=7,seed=2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 || g.Elevation() != 1 {
		t.Errorf("chain: n=%d ymax=%d", g.N(), g.Elevation())
	}
}

func TestLoadWithCCR(t *testing.T) {
	for _, spec := range []string{"chain:n=7,seed=2", "random:n=12,elev=3,seed=4", "streamit:DCT"} {
		g, err := load(spec, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		ratio := g.TotalWork() / g.TotalVolume()
		if ratio < 2.49 || ratio > 2.51 {
			t.Errorf("%s: CCR = %g, want 2.5", spec, ratio)
		}
	}
}

func TestLoadFileRoundTrip(t *testing.T) {
	g, err := load("random:n=12,elev=3,seed=4", 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g2, err := load("file:"+path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Errorf("round trip lost structure: %v vs %v", g2, g)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"nocolon",
		"unknown:x",
		"streamit:NoSuchApp",
		"random:n=abc",
		"random:badpair",
		"random:n=1",
		"random:elev=0",
		"random:n=1000000",
		"chain:n=1",
		"chain:n=2001",
		"file:/does/not/exist.json",
		// Keys a kind does not take: the JSON field name, elev on a chain.
		"random:n=30,elevation=8,seed=7",
		"chain:n=7,elev=3",
	}
	for _, spec := range cases {
		if _, err := load(spec, 0); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if _, err := load("streamit:DCT", -1); err == nil {
		t.Error("negative ccr accepted")
	}
	// A file: graph past engine.MaxStages fails in Build's spec check,
	// before any analysis.
	big, err := spg.Chain(make([]float64, 2001), make([]float64, 2000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "big.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := load("file:"+path, 0); err == nil || !strings.Contains(err.Error(), "at most 2000 stages") {
		t.Errorf("over-limit file graph: error %v", err)
	}
}

func TestParseGrid(t *testing.T) {
	p, q, err := workload.ParseGrid("4x6")
	if err != nil || p != 4 || q != 6 {
		t.Errorf("ParseGrid(4x6) = %d,%d,%v", p, q, err)
	}
	for _, bad := range []string{"4", "x4", "4x", "0x4", "axb"} {
		if _, _, err := workload.ParseGrid(bad); err == nil {
			t.Errorf("grid %q accepted", bad)
		}
	}
}

func TestLoadErrorMentionsSpec(t *testing.T) {
	_, err := workload.Parse("bogus")
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %v does not mention the spec", err)
	}
	for spec, keys := range map[string]string{
		"random:n=30,elevation=8,seed=7": "n, elev, seed",
		"chain:elev=3":                   "n, seed",
	} {
		if _, err := workload.Parse(spec); err == nil || !strings.Contains(err.Error(), keys) {
			t.Errorf("%s: error %v does not name the keys %q", spec, err, keys)
		}
	}
}

// FuzzParseWorkload drives the text layer: the kind split, the key=value
// arguments and ParseGrid. It builds no graph and opens no file: only the
// streamit: and random: lowerings run, and they are pure data. Every
// workload they accept must pass the engine's own spec check, so a flag can
// never name a cell the service would refuse.
func FuzzParseWorkload(f *testing.F) {
	for _, seed := range []struct{ spec, grid string }{
		{"streamit:FMRadio", "4x4"},
		{"streamit:Vocoder", "6x6"},
		{"random:n=30,elev=4,seed=7", "4x4"},
		{"random:n=50,elev=8,seed=3", "6x6"},
		{"random:n=50,elev=8,seed=1", "4x4"},
		{"random:", "2x2"},
		{"chain:n=12", "4x4"},
		{"chain:n=5,seed=1", "2x2"},
		{"chain:n=10,seed=1", "4x3"},
		{"file:graph.json", "4x4"},
	} {
		f.Add(seed.spec, seed.grid)
	}
	f.Fuzz(func(t *testing.T, spec, grid string) {
		if p, q, err := workload.ParseGrid(grid); err == nil && (p < 1 || q < 1) {
			t.Fatalf("grid %q accepted as %dx%d", grid, p, q)
		}
		s, err := workload.Parse(spec)
		if err != nil || (s.Kind != workload.StreamIt && s.Kind != workload.Random) {
			return
		}
		cell, err := experiments.FlagCell(s, 0, 1, 1, 0)
		if err != nil {
			return
		}
		if err := cell.Spec.Validate(); err != nil {
			t.Fatalf("spec %q lowers to a cell the engine rejects: %v", spec, err)
		}
	})
}
