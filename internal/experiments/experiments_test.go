package experiments

import (
	"math"
	"strings"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// runAll executes every heuristic on the instance with the campaign
// configuration. The instance's analysis cache (when attached) is shared by
// all five heuristics.
func runAll(inst core.Instance, seed int64) []core.CellOutcome {
	return core.NewCellSolver(inst, campaignOptions(seed)).Complete()
}

// TestSelectPeriodProtocol: the selected period must admit at least one
// solution while T/10 admits none.
func TestSelectPeriodProtocol(t *testing.T) {
	g, err := randspg.Generate(randspg.Params{N: 20, Elevation: 3, Seed: 5, CCR: 10})
	if err != nil {
		t.Fatal(err)
	}
	pl := platform.XScale(4, 4)
	ir, ok := SelectPeriod(spg.NewAnalysis(g), pl, 1)
	if !ok {
		t.Fatal("no heuristic succeeded at T=1s on an easy instance")
	}
	if !core.AnyOK(ir.Outcomes) {
		t.Fatal("selected period has no successful heuristic")
	}
	if ir.Period > 1 || ir.Period <= 0 {
		t.Fatalf("period %g out of range", ir.Period)
	}
	below := runAll(core.NewInstance(g, pl, ir.Period/10), 1)
	if core.AnyOK(below) {
		t.Errorf("period %g is not tight: T/10 still succeeds", ir.Period)
	}
}

// TestRunStreamItSubset runs a 3-app campaign end to end on 4x4.
func TestRunStreamItSubset(t *testing.T) {
	apps := []streamit.App{}
	for _, a := range streamit.Suite() {
		switch a.Name {
		case "DCT", "FFT", "MPEG2-noparser":
			apps = append(apps, a)
		}
	}
	res, err := RunStreamIt(4, 4, apps, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(apps)*4 {
		t.Fatalf("cells = %d, want %d", len(res.Cells), len(apps)*4)
	}
	for _, c := range res.Cells {
		if len(c.Result.Outcomes) != 5 {
			t.Fatalf("%s/%s: %d outcomes", c.App.Name, c.CCRLabel, len(c.Result.Outcomes))
		}
		norm := c.NormalizedEnergy()
		for name, v := range norm {
			if v < 1-1e-9 {
				t.Errorf("%s/%s: %s normalized energy %g < 1", c.App.Name, c.CCRLabel, name, v)
			}
		}
	}
	// Rendering must produce the four panels.
	text := RenderStreamIt(res)
	for _, label := range CCRLabels() {
		if !strings.Contains(text, "CCR = "+label) {
			t.Errorf("render missing panel %q", label)
		}
	}
	if csv := CSVStreamIt(res); !strings.Contains(csv, "DCT") {
		t.Error("CSV missing app rows")
	}
	failures := res.FailureCounts()
	if len(failures) != 5 {
		t.Fatalf("failure counts for %d heuristics", len(failures))
	}
}

// TestRunRandomSmall runs a tiny random campaign end to end.
func TestRunRandomSmall(t *testing.T) {
	res, err := RunRandom(RandomConfig{
		N: 20, P: 4, Q: 4, CCR: 10,
		MinElevation: 1, MaxElevation: 4, GraphsPerElev: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, pt := range res.Points {
		for name, v := range pt.MeanInvNorm {
			if v < 0 || v > 1+1e-9 {
				t.Errorf("elev %d: %s mean inv norm %g outside [0,1]", pt.Elevation, name, v)
			}
		}
	}
	text := RenderRandom(res)
	if !strings.Contains(text, "elev") {
		t.Error("render output missing header")
	}
	if csv := CSVRandom(res); !strings.Contains(csv, "DPA2D1D") {
		t.Error("CSV missing heuristic rows")
	}
	if got := res.Instances(); got != 12 {
		t.Errorf("instances = %d, want 12", got)
	}
}

func TestRenderTable1(t *testing.T) {
	text := RenderTable1()
	for _, name := range []string{"Beamformer", "Serpent", "TDE"} {
		if !strings.Contains(text, name) {
			t.Errorf("Table 1 missing %s", name)
		}
	}
}

func TestRenderChartHandlesEmpty(t *testing.T) {
	if out := RenderChart("x", map[string][]float64{}, 5); !strings.Contains(out, "no data") {
		t.Errorf("empty chart output: %q", out)
	}
}

func TestRenderFailureTables(t *testing.T) {
	res, err := RunStreamIt(4, 4, []streamit.App{streamit.Suite()[6]}, 3) // DCT
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFailureTable([]*StreamItResult{res})
	if !strings.Contains(out, "4x4") {
		t.Error("failure table missing platform row")
	}
}

func TestCCRLabel(t *testing.T) {
	if got := ccrLabel(537, true); got != "orig" {
		t.Errorf("orig label = %q", got)
	}
	for v, want := range map[float64]string{10: "10", 1: "1", 0.1: "0.1", 2.5: "2.5"} {
		if got := ccrLabel(v, false); got != want {
			t.Errorf("ccrLabel(%g) = %q, want %q", v, got, want)
		}
	}
}

func TestHeuristicsSetMatchesNames(t *testing.T) {
	hs := core.AllWith(campaignOptions(1))
	if len(hs) != len(HeuristicNames) {
		t.Fatalf("%d heuristics for %d names", len(hs), len(HeuristicNames))
	}
	for i, h := range hs {
		if h.Name() != HeuristicNames[i] {
			t.Errorf("heuristic %d = %s, want %s", i, h.Name(), HeuristicNames[i])
		}
	}
}

func TestInstanceResultBestEnergy(t *testing.T) {
	ir := engine.InstanceResult{Outcomes: []core.CellOutcome{
		{Heuristic: "A", OK: true, Energy: 5},
		{Heuristic: "B", OK: false, Energy: 1},
		{Heuristic: "C", OK: true, Energy: 3},
	}}
	if got := ir.BestEnergy(); got != 3 {
		t.Errorf("BestEnergy = %g, want 3 (failed outcomes ignored)", got)
	}
	empty := engine.InstanceResult{Outcomes: []core.CellOutcome{{OK: false}}}
	if !math.IsInf(empty.BestEnergy(), 1) {
		t.Error("BestEnergy of all-failed must be +Inf")
	}
}
