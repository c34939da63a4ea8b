package platform

import (
	"math"
	"testing"
	"testing/quick"
)

func TestXScaleModel(t *testing.T) {
	pl := XScale(4, 4)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if pl.NumCores() != 16 {
		t.Errorf("cores = %d", pl.NumCores())
	}
	wantSpeeds := []float64{0.15, 0.4, 0.6, 0.8, 1.0}
	for i, s := range wantSpeeds {
		if pl.Speeds[i] != s {
			t.Errorf("speed[%d] = %g, want %g", i, pl.Speeds[i], s)
		}
	}
	if pl.MaxSpeed() != 1.0 || pl.MinSpeed() != 0.15 {
		t.Errorf("speed extremes wrong: %g %g", pl.MaxSpeed(), pl.MinSpeed())
	}
	// BW = 16 bytes x 1.2 GHz = 19.2 GB/s.
	if math.Abs(pl.BW-19.2) > 1e-12 {
		t.Errorf("BW = %g, want 19.2", pl.BW)
	}
	// E(bit) = 6 pJ -> 0.048 J/GB.
	if math.Abs(pl.EnergyPerGB-0.048) > 1e-12 {
		t.Errorf("EnergyPerGB = %g, want 0.048", pl.EnergyPerGB)
	}
}

func TestValidateRejectsBadPlatforms(t *testing.T) {
	cases := []func(*Platform){
		func(p *Platform) { p.P = 0 },
		func(p *Platform) { p.Speeds = nil },
		func(p *Platform) { p.DynPower = p.DynPower[:2] },
		func(p *Platform) { p.Speeds[0], p.Speeds[1] = p.Speeds[1], p.Speeds[0] },
		func(p *Platform) { p.Speeds[0] = p.Speeds[1] },
		func(p *Platform) { p.BW = 0 },
		func(p *Platform) { p.LeakPower = -1 },
		func(p *Platform) { p.DynPower[0] = -1 },
	}
	for i, mutate := range cases {
		pl := XScale(2, 2)
		mutate(pl)
		if err := pl.Validate(); err == nil {
			t.Errorf("case %d: invalid platform accepted", i)
		}
	}
}

func TestMinFeasibleSpeed(t *testing.T) {
	pl := XScale(2, 2)
	tests := []struct {
		work, T float64
		wantIdx int
		wantOK  bool
	}{
		{0.0, 1, 0, true},
		{0.1, 1, 0, true},   // 0.1 <= 0.15
		{0.15, 1, 0, true},  // boundary
		{0.2, 1, 1, true},   // needs 0.4
		{0.5, 1, 2, true},   // needs 0.6
		{0.9, 1, 4, true},   // needs 1.0
		{1.0, 1, 4, true},   // boundary
		{1.01, 1, 0, false}, // impossible
		{0.05, 0.05, 4, true},
		{-1, 1, 0, false},
		{0.1, 0, 0, false},
	}
	for _, tc := range tests {
		_, idx, ok := pl.MinFeasibleSpeed(tc.work, tc.T)
		if ok != tc.wantOK || (ok && idx != tc.wantIdx) {
			t.Errorf("MinFeasibleSpeed(%g, %g) = (%d, %v), want (%d, %v)",
				tc.work, tc.T, idx, ok, tc.wantIdx, tc.wantOK)
		}
	}
}

func TestCoreEnergy(t *testing.T) {
	pl := XScale(2, 2)
	// 0.4 Gcycles at 0.8 GHz for T=1: leak 0.08 + 0.5 s x 0.9 W.
	got := pl.CoreEnergy(0.4, 1, 3)
	want := 0.08 + 0.5*0.9
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("CoreEnergy = %g, want %g", got, want)
	}
}

func TestLinksEnumeration(t *testing.T) {
	pl := XScale(3, 2)
	links := pl.Links()
	// Grid 3x2: vertical pairs: 2 cols x 2 = 4, horizontal: 3 rows x 1 = 3;
	// each bidirectional -> 14 directed links.
	if len(links) != 14 {
		t.Fatalf("links = %d, want 14", len(links))
	}
	for _, l := range links {
		if !pl.Adjacent(l.From, l.To) {
			t.Errorf("non-adjacent link %v", l)
		}
	}
}

func TestAdjacent(t *testing.T) {
	pl := XScale(3, 3)
	a := Core{1, 1}
	for _, b := range []Core{{0, 1}, {2, 1}, {1, 0}, {1, 2}} {
		if !pl.Adjacent(a, b) {
			t.Errorf("%v and %v should be adjacent", a, b)
		}
	}
	for _, b := range []Core{{1, 1}, {0, 0}, {2, 2}, {3, 1}} {
		if pl.Adjacent(a, b) {
			t.Errorf("%v and %v should not be adjacent", a, b)
		}
	}
}

// TestXYPathProperties: the XY route is connected, minimal (Manhattan
// length), within bounds, and horizontal-first.
func TestXYPathProperties(t *testing.T) {
	pl := XScale(6, 6)
	f := func(au, av, bu, bv uint8) bool {
		a := Core{int(au) % 6, int(av) % 6}
		b := Core{int(bu) % 6, int(bv) % 6}
		path := pl.XYPath(a, b)
		if len(path) != Manhattan(a, b) {
			return false
		}
		if err := pl.ValidatePath(a, b, path); err != nil {
			t.Logf("%v -> %v: %v", a, b, err)
			return false
		}
		// Horizontal-first: once a vertical hop appears, no horizontal hop
		// may follow.
		vertical := false
		for _, l := range path {
			isVert := l.From.V == l.To.V
			if vertical && !isVert {
				return false
			}
			vertical = isVert
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidatePathRejects(t *testing.T) {
	pl := XScale(3, 3)
	a, b := Core{0, 0}, Core{2, 2}
	good := pl.XYPath(a, b)
	if err := pl.ValidatePath(a, b, good); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	// Wrong start.
	bad := append([]Link{{Core{1, 0}, Core{1, 1}}}, good...)
	if err := pl.ValidatePath(a, b, bad); err == nil {
		t.Error("disconnected path accepted")
	}
	// Wrong end.
	if err := pl.ValidatePath(a, Core{1, 1}, good); err == nil {
		t.Error("path to wrong destination accepted")
	}
	// Empty path between distinct cores.
	if err := pl.ValidatePath(a, b, nil); err == nil {
		t.Error("empty path accepted")
	}
	// Non-empty path between identical cores.
	if err := pl.ValidatePath(a, a, good); err == nil {
		t.Error("self-path accepted")
	}
	// Cycle.
	cycle := []Link{
		{Core{0, 0}, Core{0, 1}}, {Core{0, 1}, Core{1, 1}},
		{Core{1, 1}, Core{1, 0}}, {Core{1, 0}, Core{0, 0}},
		{Core{0, 0}, Core{0, 1}},
	}
	if err := pl.ValidatePath(a, Core{0, 1}, cycle); err == nil {
		t.Error("cyclic path accepted")
	}
}

// TestSnakeProperties: the snake is a bijection onto the grid where
// consecutive positions are physically adjacent.
func TestSnakeProperties(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 7}, {4, 4}, {6, 6}, {3, 5}, {5, 3}} {
		pl := XScale(dims[0], dims[1])
		s := NewSnake(pl)
		if s.Len() != pl.NumCores() {
			t.Fatalf("%v: snake length %d", dims, s.Len())
		}
		seen := make(map[Core]bool)
		for k := 0; k < s.Len(); k++ {
			c := s.Core(k)
			if seen[c] {
				t.Fatalf("%v: core %v visited twice", dims, c)
			}
			seen[c] = true
			if s.Position(c) != k {
				t.Fatalf("%v: Position(Core(%d)) = %d", dims, k, s.Position(c))
			}
			if k > 0 && !pl.Adjacent(s.Core(k-1), c) {
				t.Fatalf("%v: snake positions %d and %d not adjacent", dims, k-1, k)
			}
		}
	}
}

func TestSnakePath(t *testing.T) {
	pl := XScale(4, 4)
	s := NewSnake(pl)
	for _, tc := range [][2]int{{0, 5}, {5, 0}, {3, 3}, {0, 15}} {
		path := s.Path(tc[0], tc[1])
		wantLen := tc[1] - tc[0]
		if wantLen < 0 {
			wantLen = -wantLen
		}
		if len(path) != wantLen {
			t.Errorf("Path(%d,%d) length %d, want %d", tc[0], tc[1], len(path), wantLen)
		}
		if err := pl.ValidatePath(s.Core(tc[0]), s.Core(tc[1]), path); err != nil {
			t.Errorf("Path(%d,%d): %v", tc[0], tc[1], err)
		}
	}
}

func TestSpeedIndex(t *testing.T) {
	pl := XScale(2, 2)
	if pl.SpeedIndex(0.6) != 2 {
		t.Errorf("SpeedIndex(0.6) = %d", pl.SpeedIndex(0.6))
	}
	if pl.SpeedIndex(0.55) != -1 {
		t.Errorf("SpeedIndex(0.55) = %d", pl.SpeedIndex(0.55))
	}
}

// TestYXPathProperties mirrors the XY property test for the transposed
// route: minimal, valid, vertical-first.
func TestYXPathProperties(t *testing.T) {
	pl := XScale(6, 6)
	f := func(au, av, bu, bv uint8) bool {
		a := Core{int(au) % 6, int(av) % 6}
		b := Core{int(bu) % 6, int(bv) % 6}
		path := pl.YXPath(a, b)
		if len(path) != Manhattan(a, b) {
			return false
		}
		if err := pl.ValidatePath(a, b, path); err != nil {
			t.Logf("%v -> %v: %v", a, b, err)
			return false
		}
		horizontal := false
		for _, l := range path {
			isHoriz := l.From.U == l.To.U
			if horizontal && !isHoriz {
				return false
			}
			horizontal = isHoriz
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
