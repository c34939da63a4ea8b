package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/streamit"
)

// TestFamilyInterleaveOrder: the local schedule is a permutation of the
// cells that takes one cell per CacheKey group per round, groups in order of
// first appearance and each group's cells in index order, with every
// empty-CacheKey cell a group of its own.
func TestFamilyInterleaveOrder(t *testing.T) {
	cell := func(key string) Cell { return Cell{Spec: CellSpec{CacheKey: key}} }
	for _, tc := range []struct {
		keys []string
		want []int
	}{
		{nil, []int{}},
		{[]string{"a", "a", "a"}, []int{0, 1, 2}},
		{[]string{"a", "b", "c"}, []int{0, 1, 2}},
		{[]string{"a", "a", "b", "b"}, []int{0, 2, 1, 3}},
		// Groups keep their first appearance's rank even when a later
		// group's next cell has a smaller index.
		{[]string{"a", "b", "b", "b", "a", "c"}, []int{0, 1, 5, 4, 2, 3}},
		{[]string{"", "a", "", "a", "a"}, []int{0, 1, 2, 3, 4}},
		{[]string{"a", "a", "", "", "b"}, []int{0, 2, 3, 4, 1}},
	} {
		cells := make([]Cell, len(tc.keys))
		for i, k := range tc.keys {
			cells[i] = cell(k)
		}
		if got := familyInterleave(cells); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("keys %q: order %v, want %v", tc.keys, got, tc.want)
		}
	}
}

// streamItCampaign is the Figure 8 campaign (StreamIt apps x four CCRs on
// a 4x4 grid) built from wire specs in application-major order, the order
// the experiments package enumerates it in.
func streamItCampaign(apps []streamit.App) []Cell {
	var cells []Cell
	for _, a := range apps {
		for _, ccr := range []float64{a.CCR, 10, 1, 0.1} {
			cells = append(cells, CellSpec{
				Key:      fmt.Sprintf("%s/ccr=%g/4x4", a.Name, ccr),
				CacheKey: "streamit/" + a.Name,
				Workload: WorkloadSpec{StreamIt: a.Name},
				ScaleCCR: true,
				CCR:      ccr,
				P:        4,
				Q:        4,
				Opts:     core.Options{Seed: 1 + int64(len(cells)), DPA1DMaxStates: 60_000},
			}.Cell())
		}
	}
	return cells
}

func wireResults(t *testing.T, label string, results []CellResult) []string {
	t.Helper()
	out := make([]string, len(results))
	for i, r := range results {
		if r.Err != nil || r.Index != i {
			t.Fatalf("%s: result %d: index %d, err %v", label, i, r.Index, r.Err)
		}
		b, err := json.Marshal(r.Wire())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// TestRunInterleavedScheduleByteIdentical: engine.Run on the StreamIt 4x4
// campaign, scheduled family-interleaved, answers byte-identically to
// per-cell Solves in index order, at 1, 2 and 4 workers, with the result
// store off and on (cold, then warm).
func TestRunInterleavedScheduleByteIdentical(t *testing.T) {
	apps := streamit.Suite()
	if testing.Short() {
		apps = nil
		for _, name := range []string{"DCT", "FFT"} {
			a, err := streamit.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, a)
		}
	}
	cells := streamItCampaign(apps)
	ref := NewAnalysisCache(64)
	want := make([]CellResult, len(cells))
	for i, c := range cells {
		want[i] = Solve(c, ref)
		want[i].Index = i
	}
	wantWire := wireResults(t, "per-cell", want)
	for _, workers := range []int{1, 2, 4} {
		store := NewResultStore(1024, 0)
		for _, run := range []struct {
			name  string
			store *ResultStore
		}{{"store off", nil}, {"store cold", store}, {"store warm", store}} {
			label := fmt.Sprintf("workers=%d/%s", workers, run.name)
			got, err := Run(context.Background(), &PoolExecutor{Workers: workers},
				Campaign{Cells: cells, Cache: NewAnalysisCache(64), Store: run.store})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, w := range wireResults(t, label, got) {
				if w != wantWire[i] {
					t.Fatalf("%s: cell %s not byte-identical:\n got %s\nwant %s", label, cells[i].Spec.Key, w, wantWire[i])
				}
			}
		}
	}
}
