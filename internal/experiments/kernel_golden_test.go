package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"spgcmp/internal/engine"
)

// The kernel golden suite pins the solver kernels' exact outputs: energies,
// selected periods, failure verdicts and active-core counts for every
// StreamIt (app x CCR) cell on the 4x4 grid plus a seeded random panel,
// float64s encoded in hex so a single-ulp drift fails. The golden file was
// generated by the map-keyed kernels that predate the flattened (bitset
// downsets, run-indexed tables, scratch arenas) rewrite, so this test is the
// old-vs-new bit-identity proof: every execution regime — cold, warm cache,
// serial pool — must reproduce the recorded outputs exactly.
//
// Regenerate (only when the kernel's outputs are *supposed* to change, which
// per the determinism guarantee should essentially never happen) with:
//
//	go test ./internal/experiments -run TestKernelGolden -update-kernel-golden
var updateKernelGolden = flag.Bool("update-kernel-golden", false,
	"rewrite testdata/kernel_golden.json from the current kernel's outputs")

const kernelGoldenPath = "testdata/kernel_golden.json"

// goldenOutcome is one heuristic's verdict with the energy in collision-free
// hex float form.
type goldenOutcome struct {
	Heuristic   string `json:"heuristic"`
	OK          bool   `json:"ok"`
	Energy      string `json:"energy,omitempty"`
	ActiveCores int    `json:"active_cores,omitempty"`
}

type goldenCell struct {
	Feasible bool            `json:"feasible"`
	Period   string          `json:"period"`
	Outcomes []goldenOutcome `json:"outcomes"`
}

func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// kernelGoldenCells enumerates the pinned cell set: the full StreamIt suite
// (every app x CCR variant) and a random panel spanning elevations 1..6 at
// the paper's three CCR points.
func kernelGoldenCells(t *testing.T) []engine.Cell {
	t.Helper()
	cells := StreamItCells(4, 4, nil, 1)
	for _, ccr := range []float64{10, 1, 0.1} {
		rc, err := RandomCells(RandomConfig{
			N: 40, P: 4, Q: 4, CCR: ccr,
			MinElevation: 1, MaxElevation: 6, GraphsPerElev: 2, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, rc...)
	}
	return cells
}

func goldenFromResults(t *testing.T, results []engine.CellResult) map[string]goldenCell {
	t.Helper()
	out := make(map[string]goldenCell, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %s: %v", r.Key, r.Err)
		}
		gc := goldenCell{Feasible: r.Feasible, Period: hexFloat(r.Result.Period)}
		for _, o := range r.Result.Outcomes {
			g := goldenOutcome{Heuristic: o.Heuristic, OK: o.OK, ActiveCores: o.ActiveCores}
			if o.OK {
				g.Energy = hexFloat(o.Energy)
			}
			out[r.Key] = gc
			gc.Outcomes = append(gc.Outcomes, g)
		}
		out[r.Key] = gc
	}
	return out
}

func runKernelCells(t *testing.T, cells []engine.Cell, ex engine.Executor, cache *engine.AnalysisCache) map[string]goldenCell {
	t.Helper()
	results, err := engine.Run(context.Background(), ex, engine.Campaign{Cells: cells, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return goldenFromResults(t, results)
}

func compareGolden(t *testing.T, variant string, got, want map[string]goldenCell) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	mismatches := 0
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: cell %s not in golden file (regenerate with -update-kernel-golden)", variant, k)
			continue
		}
		g := got[k]
		if g.Feasible != w.Feasible || g.Period != w.Period {
			t.Errorf("%s: cell %s: feasible/period (%v, %s) != golden (%v, %s)",
				variant, k, g.Feasible, g.Period, w.Feasible, w.Period)
			mismatches++
		}
		if len(g.Outcomes) != len(w.Outcomes) {
			t.Errorf("%s: cell %s: %d outcomes != golden %d", variant, k, len(g.Outcomes), len(w.Outcomes))
			continue
		}
		for i, o := range g.Outcomes {
			if o != w.Outcomes[i] {
				t.Errorf("%s: cell %s %s: %+v != golden %+v", variant, k, o.Heuristic, o, w.Outcomes[i])
				mismatches++
			}
		}
		if mismatches > 20 {
			t.Fatalf("%s: too many mismatches, stopping", variant)
		}
	}
}

// TestKernelGolden proves the flattened kernels bit-identical to the recorded
// pre-rewrite outputs under every execution regime. Under -short only the
// cold-pool regime runs on a reduced cell set; the full matrix (warm cache
// replay, serial pool) runs in the unabridged suite.
func TestKernelGolden(t *testing.T) {
	cells := kernelGoldenCells(t)

	if *updateKernelGolden {
		golden := runKernelCells(t, cells, nil, nil)
		var buf []byte
		buf, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(kernelGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(golden), kernelGoldenPath)
		return
	}

	buf, err := os.ReadFile(kernelGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-kernel-golden): %v", err)
	}
	var want map[string]goldenCell
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}

	if testing.Short() {
		// Reduced set: three regime-covering apps plus the CCR-1 random panel,
		// filtered from the full list (not rebuilt) because StreamItCells
		// derives each cell's Random seed from its position in the suite.
		var reduced []engine.Cell
		for _, c := range cells {
			switch {
			case strings.HasPrefix(c.Spec.Key, "streamit/DCT/"),
				strings.HasPrefix(c.Spec.Key, "streamit/DES/"),
				strings.HasPrefix(c.Spec.Key, "streamit/FMRadio/"),
				c.Spec.Workload.Random != nil && c.Spec.Workload.Random.CCR == 1:
				reduced = append(reduced, c)
			}
		}
		compareGolden(t, "cold-pool", runKernelCells(t, reduced, nil, nil), want)
		return
	}

	t.Run("ColdPool", func(t *testing.T) {
		compareGolden(t, "cold-pool", runKernelCells(t, cells, nil, nil), want)
	})
	t.Run("WarmCache", func(t *testing.T) {
		cache := NewAnalysisCache(128)
		_ = runKernelCells(t, cells, nil, cache)
		compareGolden(t, "warm-cache", runKernelCells(t, cells, nil, cache), want)
	})
	t.Run("SerialPool", func(t *testing.T) {
		compareGolden(t, "serial-pool", runKernelCells(t, cells, &engine.PoolExecutor{Workers: 1}, nil), want)
	})
}
