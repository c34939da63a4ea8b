package mapping

import (
	"math"
	"strings"
	"testing"

	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

func chain(t testing.TB, weights []float64, vols []float64) *spg.Graph {
	t.Helper()
	g, err := spg.Chain(weights, vols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// singleCore maps every stage onto core (0,0) at the given speed index.
func singleCore(g *spg.Graph, pl *platform.Platform, speedIdx int) *Mapping {
	m := New(g.N(), pl)
	c := platform.Core{U: 0, V: 0}
	for i := range m.Alloc {
		m.Alloc[i] = c
	}
	m.SetSpeed(pl, c, speedIdx)
	return m
}

func TestEvaluateSingleCoreEnergy(t *testing.T) {
	pl := platform.XScale(2, 2)
	g := chain(t, []float64{0.1, 0.2}, []float64{5})
	m := singleCore(g, pl, 2) // 0.6 GHz
	res, err := Evaluate(g, pl, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Intra-core edge: no communication at all.
	if res.CommDynEnergy != 0 || res.UsedLinks != 0 {
		t.Errorf("intra-core mapping has comm energy %g on %d links", res.CommDynEnergy, res.UsedLinks)
	}
	wantCycle := 0.3 / 0.6
	if math.Abs(res.MaxCycleTime-wantCycle) > 1e-12 {
		t.Errorf("cycle time %g, want %g", res.MaxCycleTime, wantCycle)
	}
	want := float64(pl.LeakPower*1) + float64(0.3/0.6*pl.DynPower[2])
	if math.Abs(res.Energy-want) > 1e-12 {
		t.Errorf("energy %g, want %g", res.Energy, want)
	}
	if res.ActiveCores != 1 {
		t.Errorf("active cores %d", res.ActiveCores)
	}
}

func TestEvaluateTwoCoreCommunication(t *testing.T) {
	pl := platform.XScale(2, 2)
	g := chain(t, []float64{0.1, 0.1}, []float64{3})
	m := New(2, pl)
	m.Alloc[0] = platform.Core{U: 0, V: 0}
	m.Alloc[1] = platform.Core{U: 1, V: 1}
	m.SetSpeed(pl, m.Alloc[0], 4)
	m.SetSpeed(pl, m.Alloc[1], 4)
	res, err := Evaluate(g, pl, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// XY route: 2 hops, 3 GB each.
	if res.UsedLinks != 2 {
		t.Errorf("used links %d, want 2", res.UsedLinks)
	}
	wantComm := float64(2 * 3.0 * pl.EnergyPerGB)
	if math.Abs(res.CommDynEnergy-wantComm) > 1e-12 {
		t.Errorf("comm energy %g, want %g", res.CommDynEnergy, wantComm)
	}
	// At 1 GHz cores take 0.1 s; the links take 3/19.2 = 0.156 s and bound
	// the cycle-time.
	if want := 3.0 / pl.BW; math.Abs(res.MaxCycleTime-want) > 1e-12 {
		t.Errorf("max cycle %g, want %g (link bound)", res.MaxCycleTime, want)
	}
}

func TestEvaluatePeriodViolations(t *testing.T) {
	pl := platform.XScale(2, 2)
	// Computation violation: 0.2 Gcycles at 0.15 GHz > T=1.
	g := chain(t, []float64{0.1, 0.1}, []float64{0.001})
	m := singleCore(g, pl, 0)
	if _, err := Evaluate(g, pl, m, 1); err == nil {
		t.Error("computation overload accepted")
	}
	// Bandwidth violation: 30 GB over a 19.2 GB link at T=1.
	g2 := chain(t, []float64{0.01, 0.01}, []float64{30})
	m2 := New(2, pl)
	m2.Alloc[0] = platform.Core{U: 0, V: 0}
	m2.Alloc[1] = platform.Core{U: 0, V: 1}
	m2.SetSpeed(pl, m2.Alloc[0], 0)
	m2.SetSpeed(pl, m2.Alloc[1], 0)
	if _, err := Evaluate(g2, pl, m2, 1); err == nil {
		t.Error("bandwidth overload accepted")
	}
}

func TestEvaluateRejectsMissingSpeed(t *testing.T) {
	pl := platform.XScale(2, 2)
	g := chain(t, []float64{0.1, 0.1}, []float64{0.001})
	m := New(2, pl)
	m.Alloc[0] = platform.Core{U: 0, V: 0}
	m.Alloc[1] = platform.Core{U: 0, V: 1}
	m.SetSpeed(pl, m.Alloc[0], 1)
	// Core (0,1) hosts a stage but is off.
	if _, err := Evaluate(g, pl, m, 1); err == nil {
		t.Error("unpowered active core accepted")
	}
}

// TestEvaluateRejectsCyclicQuotient builds the counter-example showing
// per-cluster convexity is weaker than quotient acyclicity: two clusters
// with edges in both directions.
func TestEvaluateRejectsCyclicQuotient(t *testing.T) {
	pl := platform.XScale(2, 2)
	// Diamond: S0 -> {S1, S2} -> S3; clusters {S0, S3} and {S1, S2} give
	// quotient edges in both directions.
	g, err := spg.ForkJoin(0.01, 0.01, []float64{0.01, 0.01}, []float64{0.001, 0.001}, []float64{0.001, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	m := New(g.N(), pl)
	a, b := platform.Core{U: 0, V: 0}, platform.Core{U: 0, V: 1}
	m.Alloc[0], m.Alloc[2] = a, a // source and sink together
	m.Alloc[1], m.Alloc[3] = b, b // both middle stages elsewhere
	m.SetSpeed(pl, a, 4)
	m.SetSpeed(pl, b, 4)
	_, err = Evaluate(g, pl, m, 1)
	if err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("cyclic quotient not rejected: %v", err)
	}
}

// TestEvaluateExplicitPaths proves a pinned route is what Evaluate loads: a
// fork-join whose pinned edge shares both of its links with other traffic,
// at a period where only those shared links overflow, is rejected with the
// pin and accepted as its XY twin.
func TestEvaluateExplicitPaths(t *testing.T) {
	pl := platform.XScale(2, 2)
	// Stages: 0 source, 1 and 3 middle, 2 sink. Edges: 0->1, 1->2, 0->3,
	// 3->2, every volume 1 GB.
	g, err := spg.ForkJoin(0.01, 0.01, []float64{0.01, 0.01}, []float64{1, 1}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	a, mid, b := platform.Core{U: 0, V: 0}, platform.Core{U: 1, V: 0}, platform.Core{U: 1, V: 1}
	m := New(g.N(), pl)
	m.Alloc[0], m.Alloc[1], m.Alloc[2], m.Alloc[3] = a, b, b, mid
	for _, c := range []platform.Core{a, mid, b} {
		m.SetSpeed(pl, c, 4)
	}
	// Edge 0 (a to b) routed vertical-first: over a->mid, which edge 2
	// also loads, and mid->b, which edge 3 also loads. Its XY twin goes
	// over a->(0,1)->b instead, leaving every link at 1 GB.
	m.Paths = map[int][]platform.Link{0: {{From: a, To: mid}, {From: mid, To: b}}}
	twin := m.Clone()
	twin.Paths = nil

	res, err := Evaluate(g, pl, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedLinks != 2 {
		t.Errorf("pinned mapping loads %d links, want 2", res.UsedLinks)
	}
	// At T = 0.1 s a link carries 1.92 GB: the shared links (2 GB) overflow
	// only when the pin is used.
	const T = 0.1
	_, err = Evaluate(g, pl, m, T)
	if err == nil || !strings.Contains(err.Error(), "link C(1,1)->C(2,1) load 2 GB exceeds capacity") {
		t.Errorf("pinned route not loaded: got %v", err)
	}
	res, err = Evaluate(g, pl, twin, T)
	if err != nil {
		t.Fatalf("XY twin rejected: %v", err)
	}
	if res.UsedLinks != 4 {
		t.Errorf("XY twin loads %d links, want 4", res.UsedLinks)
	}

	// A broken explicit path must be rejected.
	m.Paths[0] = m.Paths[0][:1]
	if _, err := Evaluate(g, pl, m, 1); err == nil {
		t.Error("truncated path accepted")
	}
	// An intra-core edge with a path must be rejected.
	g2 := chain(t, []float64{0.1, 0.1}, []float64{1})
	m2 := singleCore(g2, pl, 1)
	m2.Paths = map[int][]platform.Link{0: {{From: a, To: mid}}}
	if _, err := Evaluate(g2, pl, m2, 1); err == nil {
		t.Error("intra-core path accepted")
	}
}

func TestDowngradeSpeeds(t *testing.T) {
	pl := platform.XScale(2, 2)
	g := chain(t, []float64{0.1, 0.3}, []float64{0.001})
	m := New(2, pl)
	m.Alloc[0] = platform.Core{U: 0, V: 0}
	m.Alloc[1] = platform.Core{U: 0, V: 1}
	// Start everything at max speed.
	m.SetSpeed(pl, m.Alloc[0], 4)
	m.SetSpeed(pl, m.Alloc[1], 4)
	if !m.DowngradeSpeeds(g, pl, 1) {
		t.Fatal("downgrade failed")
	}
	if got := m.SpeedOf(pl, m.Alloc[0]); got != 0 { // 0.1 fits 0.15 GHz
		t.Errorf("core 0 speed idx %d, want 0", got)
	}
	if got := m.SpeedOf(pl, m.Alloc[1]); got != 1 { // 0.3 needs 0.4 GHz
		t.Errorf("core 1 speed idx %d, want 1", got)
	}
	// Unused cores must be off.
	if got := m.SpeedOf(pl, platform.Core{U: 1, V: 1}); got != -1 {
		t.Errorf("unused core speed idx %d, want -1", got)
	}
	// Infeasible work fails.
	g.Stages[1].Weight = 2
	if m.DowngradeSpeeds(g, pl, 1) {
		t.Error("downgrade succeeded on infeasible work")
	}
}

func TestClustersAndCoreWork(t *testing.T) {
	pl := platform.XScale(2, 2)
	g := chain(t, []float64{1, 2, 3}, []float64{0, 0})
	m := New(3, pl)
	a, b := platform.Core{U: 0, V: 0}, platform.Core{U: 1, V: 0}
	m.Alloc[0], m.Alloc[1], m.Alloc[2] = a, a, b
	cores, byCore := m.Clusters(pl)
	if len(cores) != 2 || cores[0] != a || cores[1] != b {
		t.Fatalf("cores = %v", cores)
	}
	if len(byCore[a]) != 2 || len(byCore[b]) != 1 {
		t.Fatalf("clusters = %v", byCore)
	}
	work := m.CoreWork(g)
	if work[a] != 3 || work[b] != 3 {
		t.Fatalf("work = %v", work)
	}
}

func TestCloneIndependence(t *testing.T) {
	pl := platform.XScale(2, 2)
	m := New(2, pl)
	m.Paths = map[int][]platform.Link{0: {{From: platform.Core{U: 0, V: 0}, To: platform.Core{U: 0, V: 1}}}}
	c := m.Clone()
	c.Alloc[0] = platform.Core{U: 1, V: 1}
	c.SpeedIdx[0] = 3
	c.Paths[0][0].To = platform.Core{U: 1, V: 0}
	if m.Alloc[0] == c.Alloc[0] || m.SpeedIdx[0] == 3 {
		t.Error("Clone shares alloc/speed storage")
	}
	if m.Paths[0][0].To == c.Paths[0][0].To {
		t.Error("Clone shares path storage")
	}
}

func TestEvaluateInputValidation(t *testing.T) {
	pl := platform.XScale(2, 2)
	g := chain(t, []float64{0.1, 0.1}, []float64{0.001})
	m := singleCore(g, pl, 4)
	if _, err := Evaluate(g, pl, m, 0); err == nil {
		t.Error("zero period accepted")
	}
	short := New(1, pl)
	if _, err := Evaluate(g, pl, short, 1); err == nil {
		t.Error("wrong alloc length accepted")
	}
	bad := singleCore(g, pl, 4)
	bad.Alloc[0] = platform.Core{U: 5, V: 5}
	if _, err := Evaluate(g, pl, bad, 1); err == nil {
		t.Error("out-of-grid core accepted")
	}
}

func TestMappingJSONRoundTrip(t *testing.T) {
	pl := platform.XScale(3, 3)
	g := chain(t, []float64{0.1, 0.1, 0.1}, []float64{1, 1})
	m := New(3, pl)
	m.Alloc[0] = platform.Core{U: 0, V: 0}
	m.Alloc[1] = platform.Core{U: 1, V: 1}
	m.Alloc[2] = platform.Core{U: 2, V: 2}
	for _, c := range m.Alloc {
		m.SetSpeed(pl, c, 2)
	}
	mid := platform.Core{U: 1, V: 0}
	m.Paths = map[int][]platform.Link{0: {
		{From: m.Alloc[0], To: mid},
		{From: mid, To: platform.Core{U: 1, V: 1}},
	}}

	var buf strings.Builder
	if err := m.WriteJSON(&buf, pl); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadJSON(strings.NewReader(buf.String()), pl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Alloc {
		if m.Alloc[i] != m2.Alloc[i] {
			t.Fatalf("alloc %d differs", i)
		}
	}
	for i := range m.SpeedIdx {
		if m.SpeedIdx[i] != m2.SpeedIdx[i] {
			t.Fatalf("speed %d differs: %d vs %d", i, m.SpeedIdx[i], m2.SpeedIdx[i])
		}
	}
	if len(m2.Paths[0]) != 2 || m2.Paths[0][0].To != mid {
		t.Fatalf("paths lost: %+v", m2.Paths)
	}
	// Both evaluate identically.
	r1, err1 := Evaluate(g, pl, m, 1)
	r2, err2 := Evaluate(g, pl, m2, 1)
	if err1 != nil || err2 != nil {
		t.Fatalf("evaluate: %v %v", err1, err2)
	}
	if r1.Energy != r2.Energy {
		t.Fatalf("energies differ after round trip")
	}
}

func TestMappingJSONRejects(t *testing.T) {
	pl := platform.XScale(2, 2)
	cases := []string{
		`{"p":3,"q":3,"alloc":[[0,0]]}`,                                       // wrong grid
		`{"p":2,"q":2,"alloc":[[5,5]]}`,                                       // out of bounds
		`{"p":2,"q":2,"alloc":[[0,0]],"cores":[{"u":0,"v":0,"speed_idx":9}]}`, // bad speed
		`not json`,
	}
	for i, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c), pl); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRenderGridAndSummary(t *testing.T) {
	pl := platform.XScale(2, 2)
	g := chain(t, []float64{0.1, 0.2}, []float64{0.001})
	m := New(2, pl)
	m.Alloc[0] = platform.Core{U: 0, V: 0}
	m.Alloc[1] = platform.Core{U: 1, V: 1}
	m.SetSpeed(pl, m.Alloc[0], 1)
	m.SetSpeed(pl, m.Alloc[1], 1)
	out := RenderGrid(g, pl, m)
	if !strings.Contains(out, "1 stages") || !strings.Contains(out, "off") {
		t.Errorf("render output unexpected:\n%s", out)
	}
	sum := Summary(g, pl, m)
	if !strings.Contains(sum, "2 cores") {
		t.Errorf("summary: %s", sum)
	}
}

func TestWireMappingCanonical(t *testing.T) {
	pl := platform.XScale(2, 2)
	m := New(4, pl)
	cores := []platform.Core{{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 1}}
	for i, c := range cores {
		m.Alloc[i] = c
		m.SetSpeed(pl, c, 1)
	}
	// Several pinned paths: the wire form must order them by edge index no
	// matter how map iteration shuffles them, so equal mappings always
	// serialize to identical bytes.
	m.Paths = map[int][]platform.Link{
		2: {{From: cores[2], To: cores[3]}},
		0: {{From: cores[0], To: cores[1]}},
		1: {{From: cores[1], To: cores[3]}},
	}
	var first string
	for trial := 0; trial < 8; trial++ {
		var buf strings.Builder
		if err := m.WriteJSON(&buf, pl); err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = buf.String()
			w := m.Wire(pl)
			for i := 1; i < len(w.Paths); i++ {
				if w.Paths[i-1].Edge >= w.Paths[i].Edge {
					t.Fatalf("wire paths unsorted: %+v", w.Paths)
				}
			}
			continue
		}
		if buf.String() != first {
			t.Fatal("wire form not canonical across serializations")
		}
	}
	// Wire -> Mapping rebuild is lossless.
	m2, err := m.Wire(pl).Mapping(pl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Alloc {
		if m.Alloc[i] != m2.Alloc[i] {
			t.Fatalf("alloc %d differs", i)
		}
	}
	for e, p := range m.Paths {
		if len(m2.Paths[e]) != len(p) || m2.Paths[e][0] != p[0] {
			t.Fatalf("path %d differs", e)
		}
	}
}
