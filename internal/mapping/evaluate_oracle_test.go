package mapping_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// The reference evaluator: the map-based model the dense evaluator replaced,
// kept verbatim (per-core work in a map, link loads in a map keyed by link,
// both sorted before they are summed, XY routes materialized as link
// lists, pinned paths validated with a visited map). The dense evaluator
// must agree with it bit for bit, error text included.

const oracleRelTol = 1e-9

type oracleResult struct {
	Energy, CompLeakEnergy, CompDynEnergy, CommLeakEnergy, CommDynEnergy float64
	MaxCycleTime                                                         float64
	ActiveCores, UsedLinks                                               int
}

func oracleEvaluate(g *spg.Graph, pl *platform.Platform, m *mapping.Mapping, T float64, requireAcyclic bool) (*oracleResult, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if T <= 0 {
		return nil, errors.New("mapping: period must be positive")
	}
	if len(m.Alloc) != g.N() {
		return nil, fmt.Errorf("mapping: %d allocations for %d stages", len(m.Alloc), g.N())
	}
	if len(m.SpeedIdx) != pl.NumCores() {
		return nil, fmt.Errorf("mapping: %d speed entries for %d cores", len(m.SpeedIdx), pl.NumCores())
	}
	for i, c := range m.Alloc {
		if !pl.InBounds(c) {
			return nil, fmt.Errorf("mapping: stage %d mapped outside the grid: %v", i, c)
		}
	}
	if requireAcyclic {
		if err := oracleCheckDAGPartition(g, m); err != nil {
			return nil, err
		}
	}

	res := &oracleResult{}
	linkLoads := make(map[platform.Link]float64)
	work := m.CoreWork(g)
	active := make([]platform.Core, 0, len(work))
	for c := range work {
		active = append(active, c)
	}
	sort.Slice(active, func(i, j int) bool {
		if active[i].U != active[j].U {
			return active[i].U < active[j].U
		}
		return active[i].V < active[j].V
	})
	for _, c := range active {
		w := work[c]
		idx := m.SpeedOf(pl, c)
		if idx < 0 || idx >= len(pl.Speeds) {
			return nil, fmt.Errorf("mapping: core %v hosts stages but has speed index %d", c, idx)
		}
		ct := w / pl.Speeds[idx]
		if ct > T*(1+oracleRelTol) {
			return nil, fmt.Errorf("mapping: core %v cycle-time %.6g exceeds period %.6g", c, ct, T)
		}
		if ct > res.MaxCycleTime {
			res.MaxCycleTime = ct
		}
		res.CompLeakEnergy += float64(pl.LeakPower * T)
		res.CompDynEnergy += float64(w / pl.Speeds[idx] * pl.DynPower[idx])
	}
	res.ActiveCores = len(work)

	for e, edge := range g.Edges {
		a, b := m.Alloc[edge.Src], m.Alloc[edge.Dst]
		if a == b {
			if _, ok := m.Paths[e]; ok {
				return nil, fmt.Errorf("mapping: edge %d is intra-core but has a path", e)
			}
			continue
		}
		path := m.PathFor(pl, e, a, b)
		if err := oracleValidatePath(pl, a, b, path); err != nil {
			return nil, fmt.Errorf("mapping: edge %d: %w", e, err)
		}
		for _, l := range path {
			linkLoads[l] += edge.Volume
		}
	}
	capacity := pl.LinkCapacity(T)
	loaded := make([]platform.Link, 0, len(linkLoads))
	for l := range linkLoads {
		loaded = append(loaded, l)
	}
	linkKey := func(l platform.Link) int {
		return (l.From.U*pl.Q+l.From.V)*pl.NumCores() + l.To.U*pl.Q + l.To.V
	}
	sort.Slice(loaded, func(i, j int) bool { return linkKey(loaded[i]) < linkKey(loaded[j]) })
	for _, l := range loaded {
		load := linkLoads[l]
		if load > capacity*(1+oracleRelTol) {
			return nil, fmt.Errorf("mapping: link %v load %.6g GB exceeds capacity %.6g GB", l, load, capacity)
		}
		if load > 0 {
			res.UsedLinks++
		}
		if ct := load / pl.BW; ct > res.MaxCycleTime {
			res.MaxCycleTime = ct
		}
		res.CommDynEnergy += float64(load * pl.EnergyPerGB)
	}

	res.CommLeakEnergy = float64(pl.CommLeakPower * T)
	res.Energy = res.CompLeakEnergy + res.CompDynEnergy + res.CommLeakEnergy + res.CommDynEnergy
	return res, nil
}

func oracleCheckDAGPartition(g *spg.Graph, m *mapping.Mapping) error {
	id := make(map[platform.Core]int)
	for _, c := range m.Alloc {
		if _, ok := id[c]; !ok {
			id[c] = len(id)
		}
	}
	k := len(id)
	adj := make(map[int][]int, k)
	indeg := make([]int, k)
	seen := make(map[[2]int]bool)
	for _, e := range g.Edges {
		a, b := id[m.Alloc[e.Src]], id[m.Alloc[e.Dst]]
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		adj[a] = append(adj[a], b)
		indeg[b]++
	}
	queue := make([]int, 0, k)
	for i := 0; i < k; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	processed := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		processed++
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if processed != k {
		return errors.New("mapping: cluster quotient graph is cyclic (DAG-partition rule violated)")
	}
	return nil
}

func oracleValidatePath(pl *platform.Platform, a, b platform.Core, path []platform.Link) error {
	if a == b {
		if len(path) != 0 {
			return fmt.Errorf("platform: non-empty path between identical cores")
		}
		return nil
	}
	if len(path) == 0 {
		return fmt.Errorf("platform: empty path between distinct cores %v and %v", a, b)
	}
	visited := map[platform.Core]bool{a: true}
	cur := a
	for i, l := range path {
		if l.From != cur {
			return fmt.Errorf("platform: path hop %d starts at %v, want %v", i, l.From, cur)
		}
		if !pl.Adjacent(l.From, l.To) {
			return fmt.Errorf("platform: path hop %d is not a grid link: %v", i, l)
		}
		if visited[l.To] {
			return fmt.Errorf("platform: path revisits core %v", l.To)
		}
		visited[l.To] = true
		cur = l.To
	}
	if cur != b {
		return fmt.Errorf("platform: path ends at %v, want %v", cur, b)
	}
	return nil
}

// agreeWithOracle evaluates m with Evaluate and EvaluateGeneral and fails
// unless each matches the oracle: the same error text, or bit-identical
// scalars. It returns Evaluate's error.
func agreeWithOracle(t testing.TB, label string, g *spg.Graph, pl *platform.Platform, m *mapping.Mapping, T float64) error {
	t.Helper()
	var firstErr error
	for _, acyclic := range []bool{true, false} {
		eval := mapping.EvaluateGeneral
		if acyclic {
			eval = mapping.Evaluate
		}
		got, gotErr := eval(g, pl, m, T)
		want, wantErr := oracleEvaluate(g, pl, m, T, acyclic)
		if acyclic {
			firstErr = gotErr
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s (acyclic=%v): error %v, oracle %v", label, acyclic, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"Energy", got.Energy, want.Energy},
			{"CompLeakEnergy", got.CompLeakEnergy, want.CompLeakEnergy},
			{"CompDynEnergy", got.CompDynEnergy, want.CompDynEnergy},
			{"CommLeakEnergy", got.CommLeakEnergy, want.CommLeakEnergy},
			{"CommDynEnergy", got.CommDynEnergy, want.CommDynEnergy},
			{"MaxCycleTime", got.MaxCycleTime, want.MaxCycleTime},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("%s (acyclic=%v): %s %.17g, oracle %.17g", label, acyclic, f.name, f.got, f.want)
			}
		}
		if got.ActiveCores != want.ActiveCores || got.UsedLinks != want.UsedLinks {
			t.Fatalf("%s (acyclic=%v): %d cores / %d links, oracle %d / %d",
				label, acyclic, got.ActiveCores, got.UsedLinks, want.ActiveCores, want.UsedLinks)
		}
	}
	return firstErr
}

// TestEvaluateMatchesOracleOnHeuristics runs every heuristic on the 12
// Table 1 workflows on 4x4 and 6x6, at their own CCR and at CCR 1, and
// compares the evaluators on each mapping at its period (DPA1D's pinned
// snake paths included), at a tenth of it (core and link violations) and
// with its pins stripped. Pinned YX routes are covered by
// TestEvaluateMatchesOracleOnRandomMappings, FuzzEvaluate and
// TestEvaluateExplicitPaths. DPA1D runs on a small state budget: its
// explosions on the fat workflows cost time and yield no mapping to compare.
func TestEvaluateMatchesOracleOnHeuristics(t *testing.T) {
	grids := [][2]int{{4, 4}, {6, 6}}
	if testing.Short() {
		grids = grids[:1]
	}
	hs := core.AllWith(core.Options{Seed: 1, DPA1DMaxStates: 2000})
	mappings, pinned := map[string]int{}, map[string]int{}
	for _, app := range streamit.Suite() {
		for _, ccr := range []float64{app.CCR, 1} {
			g, err := app.GraphWithCCR(ccr)
			if err != nil {
				t.Fatal(err)
			}
			for _, grid := range grids {
				pl := platform.XScale(grid[0], grid[1])
				inst := core.NewInstance(g, pl, 1)
				for _, T := range []float64{1, 0.1} {
					inst = inst.WithPeriod(T)
					for _, h := range hs {
						sol, err := h.Solve(inst)
						if err != nil {
							continue
						}
						m := sol.Mapping
						label := fmt.Sprintf("%s ccr=%g %dx%d T=%g %s", app.Name, ccr, grid[0], grid[1], T, h.Name())
						if err := agreeWithOracle(t, label, g, pl, m, T); err != nil {
							t.Fatalf("%s: heuristic mapping invalid: %v", label, err)
						}
						agreeWithOracle(t, label+" tight", g, pl, m, T/10)
						mappings[h.Name()]++
						if len(m.Paths) > 0 {
							pinned[h.Name()]++
							xy := m.Clone()
							xy.Paths = nil
							agreeWithOracle(t, label+" xy", g, pl, xy, T)
						}
					}
				}
			}
		}
	}
	for _, h := range hs {
		if mappings[h.Name()] == 0 {
			t.Errorf("%s produced no mapping (%v)", h.Name(), mappings)
		}
	}
	if pinned["DPA1D"] == 0 {
		t.Errorf("panel lacks pinned snake paths: %v", pinned)
	}
}

// TestEvaluateMatchesOracleOnRandomMappings compares the evaluators on
// seeded random mappings of random SPGs, built so that every failure the
// evaluator reports occurs: an over-capacity link, a core over the period,
// an unpowered core, a cyclic quotient, a bad pinned path and an
// intra-core edge with a path.
func TestEvaluateMatchesOracleOnRandomMappings(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	kinds := map[string]int{}
	classes := []string{"exceeds capacity", "exceeds period", "speed index", "cyclic", ": platform: path", "intra-core but has a path"}
	for trial := 0; trial < 3000; trial++ {
		g, err := randspg.Generate(randspg.Params{N: 4 + rng.Intn(12), Elevation: 1 + rng.Intn(3), Seed: int64(trial), CCR: []float64{0.01, 0.1, 1, 10}[rng.Intn(4)]})
		if err != nil {
			continue
		}
		pl := platform.XScale(1+rng.Intn(4), 1+rng.Intn(4))
		m := randomMapping(rng, g, pl)
		// Periods around the busiest core's time at full speed, so that
		// both core and link limits bind now and then.
		var busiest float64
		for _, w := range m.CoreWork(g) {
			busiest = math.Max(busiest, w/pl.MaxSpeed())
		}
		T := busiest * []float64{0.8, 1.2, 3, 10}[rng.Intn(4)]
		err = agreeWithOracle(t, fmt.Sprintf("trial %d", trial), g, pl, m, T)
		if err == nil {
			kinds["ok"]++
			continue
		}
		for _, c := range classes {
			if strings.Contains(err.Error(), c) {
				kinds[c]++
			}
		}
	}
	for _, c := range append(classes, "ok") {
		if kinds[c] == 0 {
			t.Errorf("no random mapping produced %q (%v)", c, kinds)
		}
	}
}

// randomMapping places stages on random cores, mostly in contiguous runs so
// that quotients are often acyclic, gives used cores random speeds (rarely
// none), and pins a random route on some edges: XY, YX, a broken walk, or a
// path on an intra-core edge.
func randomMapping(rng *rand.Rand, g *spg.Graph, pl *platform.Platform) *mapping.Mapping {
	m := mapping.New(g.N(), pl)
	cores := pl.NumCores()
	c := rng.Intn(cores)
	for i := range m.Alloc {
		if rng.Intn(3) == 0 {
			c = rng.Intn(cores)
		}
		m.Alloc[i] = platform.Core{U: c / pl.Q, V: c % pl.Q}
	}
	for _, a := range m.Alloc {
		idx := rng.Intn(len(pl.Speeds))
		if rng.Intn(40) == 0 {
			idx = -1
		}
		m.SetSpeed(pl, a, idx)
	}
	if rng.Intn(2) == 0 {
		return m
	}
	m.Paths = map[int][]platform.Link{}
	for e, edge := range g.Edges {
		a, b := m.Alloc[edge.Src], m.Alloc[edge.Dst]
		switch r := rng.Intn(40); {
		case a == b:
			if r == 0 {
				m.Paths[e] = []platform.Link{{From: a, To: a}}
			}
		case r < 10:
			m.Paths[e] = pl.YXPath(a, b)
		case r < 14:
			m.Paths[e] = pl.XYPath(a, b)
		case r == 14:
			p := pl.YXPath(a, b)
			m.Paths[e] = p[:len(p)-1]
		case r == 15:
			m.Paths[e] = randomWalk(rng, pl, a, 1+rng.Intn(4))
		}
	}
	return m
}

// randomWalk returns steps links from a in random directions, which may
// leave the grid, revisit a core or end anywhere.
func randomWalk(rng *rand.Rand, pl *platform.Platform, a platform.Core, steps int) []platform.Link {
	dirs := []platform.Core{{U: -1}, {V: -1}, {V: 1}, {U: 1}}
	var path []platform.Link
	cur := a
	for i := 0; i < steps; i++ {
		d := dirs[rng.Intn(len(dirs))]
		next := platform.Core{U: cur.U + d.U, V: cur.V + d.V}
		path = append(path, platform.Link{From: cur, To: next})
		cur = next
	}
	return path
}

// FuzzEvaluate decodes bytes into a mapping of at most 8 stages of a DAG on
// a 2x2 to 3x3 grid, with optional pinned paths, and requires the dense
// evaluator to agree with the oracle.
func FuzzEvaluate(f *testing.F) {
	f.Add([]byte{0, 3, 0x0f, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 7, 0xff, 0xff, 0xff, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 40, 41, 42, 43, 44, 45})
	f.Add([]byte{3, 5, 0xa5, 0x5a, 0x33, 2, 200, 17, 3, 3, 3, 1, 0, 8, 120, 121, 122, 123, 124})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		grid := next()
		pl := platform.XScale(2+grid%2, 2+grid/2%2)
		cores := pl.NumCores()
		n := 1 + next()%8
		g := &spg.Graph{Stages: make([]spg.Stage, n)}
		// Edge i->j (i < j) for each set bit of a 3-byte adjacency mask.
		mask := next() | next()<<8 | next()<<16
		bit := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if mask>>(bit%24)&1 == 1 {
					g.Edges = append(g.Edges, spg.Edge{Src: i, Dst: j})
				}
				bit++
			}
		}
		for i := range g.Stages {
			g.Stages[i].Weight = float64(next()) / 256
		}
		for e := range g.Edges {
			g.Edges[e].Volume = float64(next()) / 8
		}
		m := mapping.New(n, pl)
		for i := range m.Alloc {
			c := next() % cores
			m.Alloc[i] = platform.Core{U: c / pl.Q, V: c % pl.Q}
		}
		for ci := range m.SpeedIdx {
			m.SpeedIdx[ci] = next()%(len(pl.Speeds)+1) - 1
		}
		T := float64(1+next()) / 64
		dirs := []platform.Core{{U: -1}, {V: -1}, {V: 1}, {U: 1}}
		for e, edge := range g.Edges {
			a, b := m.Alloc[edge.Src], m.Alloc[edge.Dst]
			var path []platform.Link
			switch r := next(); {
			case r%4 == 0:
				continue
			case r%4 == 1 && a != b:
				path = pl.XYPath(a, b)
			case r%4 == 2 && a != b:
				path = pl.YXPath(a, b)
			default:
				cur := a
				for s := 0; s < r/4%6; s++ {
					d := dirs[next()%4]
					nc := platform.Core{U: cur.U + d.U, V: cur.V + d.V}
					path = append(path, platform.Link{From: cur, To: nc})
					cur = nc
				}
			}
			if m.Paths == nil {
				m.Paths = map[int][]platform.Link{}
			}
			m.Paths[e] = path
		}
		agreeWithOracle(t, "fuzz", g, pl, m, T)
	})
}

// TestEvaluateAllocations bounds Evaluate's allocations on an XY-routed
// FMRadio 4x4 mapping: the result, the dense core and link tables, and the
// quotient check's table. A per-call map, sort or route slice breaks it.
func TestEvaluateAllocations(t *testing.T) {
	app, err := streamit.ByName("FMRadio")
	if err != nil {
		t.Fatal(err)
	}
	g, err := app.Graph()
	if err != nil {
		t.Fatal(err)
	}
	pl := platform.XScale(4, 4)
	sol, err := core.NewGreedy().Solve(core.NewInstance(g, pl, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := sol.Mapping.Clone()
	m.Paths = nil
	if sol.Result.UsedLinks == 0 {
		t.Fatal("mapping routes nothing")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := mapping.Evaluate(g, pl, m, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("Evaluate allocates %v times per call, want at most 4", allocs)
	}
}
