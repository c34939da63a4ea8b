package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/mapping"
)

func storedResult(index int, key string, energy float64) CellResult {
	return CellResult{
		Index:    index,
		Key:      key,
		Feasible: true,
		Result: InstanceResult{
			Period:   1,
			Outcomes: []Outcome{{Heuristic: "H", OK: true, Energy: energy, ActiveCores: 2}},
		},
	}
}

// storedAnswer is storedResult in the store's form.
func storedAnswer(energy float64) StoredAnswer {
	a, err := EncodeAnswer(storedResult(0, "", energy))
	if err != nil {
		panic(err)
	}
	return a
}

func TestResultStoreRoundTrip(t *testing.T) {
	st := NewResultStore(4, 0)
	if _, ok := st.Get("k"); ok {
		t.Fatal("empty store hit")
	}
	put := storedResult(7, "cell-key", 42.5)
	stored, err := EncodeAnswer(put)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("k", stored)
	hit, ok := st.Get("k")
	if !ok {
		t.Fatal("stored key missed")
	}
	if hit != stored {
		t.Fatalf("hit is not the stored answer:\n%+v\n%+v", hit, stored)
	}
	got, err := hit.Decode()
	if err != nil {
		t.Fatal(err)
	}
	// Addressing is stripped: the caller stamps Index/Key from the
	// requesting cell.
	if got.Index != 0 || got.Key != "" {
		t.Fatalf("stored result carries addressing: index=%d key=%q", got.Index, got.Key)
	}
	got.Index, got.Key = put.Index, put.Key
	g, _ := json.Marshal(got.Wire())
	w, _ := json.Marshal(put.Wire())
	if string(g) != string(w) {
		t.Fatalf("round trip not byte-identical:\n%s\n%s", g, w)
	}
	// Decodes are fresh: mutating one must not leak into the next.
	got.Result.Outcomes[0].Energy = -1
	again, _ := hit.Decode()
	if again.Result.Outcomes[0].Energy != 42.5 {
		t.Fatal("decoded answer aliased a caller's mutation")
	}
}

// TestAnswerForNamesWinner: the answer names the first successful outcome
// at the best energy and carries its placement; an infeasible cell names
// none.
func TestAnswerForNamesWinner(t *testing.T) {
	m1, m2 := &mapping.WireMapping{Alloc: [][2]int{{0, 0}}}, &mapping.WireMapping{Alloc: [][2]int{{0, 1}}}
	r := CellResult{Feasible: true, Result: InstanceResult{Period: 1, Outcomes: []Outcome{
		{Heuristic: "A", OK: true, Energy: 3, Mapping: m1},
		{Heuristic: "B", OK: false},
		{Heuristic: "C", OK: true, Energy: 2, Mapping: m2},
		{Heuristic: "D", OK: true, Energy: 2, Mapping: m1},
	}}}
	if a := AnswerFor(r); a.Best != "C" || a.Mapping != m2 || !a.Feasible {
		t.Fatalf("winner: %+v", a)
	}
	r.Feasible = false
	if a := AnswerFor(r); a.Best != "" || a.Mapping != nil || len(a.Result.Outcomes) != 4 {
		t.Fatalf("infeasible answer: %+v", a)
	}
}

func TestResultStoreDisabledAndErrors(t *testing.T) {
	for _, st := range []*ResultStore{nil, NewResultStore(0, 0)} {
		if st.Enabled() {
			t.Fatal("store should be disabled")
		}
		st.Put("k", storedAnswer(1))
		if _, ok := st.Get("k"); ok {
			t.Fatal("disabled store served a hit")
		}
		if st.Len() != 0 {
			t.Fatal("disabled store retained an entry")
		}
	}
	// A failed cell has no answer to store.
	if _, err := EncodeAnswer(CellResult{Err: fmt.Errorf("build failed")}); err == nil {
		t.Fatal("a failed cell encoded an answer")
	}
	st := NewResultStore(4, 0)
	st.Put("", storedAnswer(1)) // empty key opts out
	st.Put("bad", StoredAnswer{})
	if st.Len() != 0 {
		t.Fatalf("unstorable results were retained: %d entries", st.Len())
	}
}

func TestResultStoreLRUEviction(t *testing.T) {
	st := NewResultStore(2, 0)
	st.Put("a", storedAnswer(1))
	st.Put("b", storedAnswer(2))
	if _, ok := st.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missed")
	}
	st.Put("c", storedAnswer(3))
	if _, ok := st.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := st.Get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	s := st.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats after eviction: %+v", s)
	}
}

func TestResultStoreByteBound(t *testing.T) {
	entry := int64(len(storedAnswer(1).JSON))
	st := NewResultStore(0, 2*entry) // room for two entries, not three
	st.Put("a", storedAnswer(1))
	st.Put("b", storedAnswer(1))
	st.Put("c", storedAnswer(1))
	s := st.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("byte bound not enforced: %+v", s)
	}
	if s.Bytes > s.MaxBytes {
		t.Fatalf("bytes %d over bound %d", s.Bytes, s.MaxBytes)
	}
	// Replacing an entry adjusts the account instead of double-counting.
	st.Put("b", storedAnswer(2))
	if got := st.Stats().Bytes; got > s.MaxBytes {
		t.Fatalf("replace leaked bytes: %d", got)
	}
}

// TestResultStoreOversizedPutKeepsResidents: an answer larger than the whole
// byte bound is not stored, and the resident entries stay.
func TestResultStoreOversizedPutKeepsResidents(t *testing.T) {
	st := NewResultStore(0, 2000)
	st.Put("a", storedAnswer(1))
	st.Put("b", storedAnswer(2))
	big := storedResult(0, "", 1)
	for i := 0; i < 200; i++ {
		big.Result.Outcomes = append(big.Result.Outcomes, Outcome{Heuristic: fmt.Sprintf("H%d", i), OK: true, Energy: float64(i), ActiveCores: 2})
	}
	oversized, err := EncodeAnswer(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(oversized.JSON) <= 2000 {
		t.Fatalf("probe of %d bytes fits the bound", len(oversized.JSON))
	}
	st.Put("big", oversized)
	st.Put("a", oversized) // a replacement too large keeps the old entry
	s := st.Stats()
	if s.Entries != 2 || s.Evictions != 0 || s.Puts != 2 {
		t.Fatalf("oversized put disturbed the store: %+v", s)
	}
	for k, want := range map[string]StoredAnswer{"a": storedAnswer(1), "b": storedAnswer(2)} {
		if got, ok := st.Get(k); !ok || got != want {
			t.Fatalf("resident %s lost or changed: %+v", k, got)
		}
	}
	if _, ok := st.Get("big"); ok {
		t.Fatal("oversized answer was stored")
	}
}

// TestResultStoreConcurrent hammers Get/Put/Stats/Len from many goroutines
// under a small bound so eviction runs constantly; the race detector is the
// assertion.
func TestResultStoreConcurrent(t *testing.T) {
	st := NewResultStore(8, 4096)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w+i)%16)
				if a, ok := st.Get(key); ok {
					r, err := a.Decode()
					if err != nil || !r.Feasible || len(r.Result.Outcomes) != 1 {
						t.Errorf("torn read: %+v %v", r, err)
						return
					}
				} else {
					st.Put(key, storedAnswer(float64(i)))
				}
				if i%17 == 0 {
					_ = st.Stats()
					_ = st.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	s := st.Stats()
	if s.Entries > 8 {
		t.Fatalf("capacity exceeded at rest: %+v", s)
	}
}

// TestRunWithStore: the store path must be invisible in the results — cold
// (populating) and warm (serving) runs are bit-identical to a store-free
// run, hits never reach the executor, and every completed solve lands in
// the store.
func TestRunWithStore(t *testing.T) {
	cells := testCells(t)
	want, err := Run(context.Background(), &PoolExecutor{Workers: 2}, Campaign{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	st := NewResultStore(64, 0)
	cold, err := Run(context.Background(), &PoolExecutor{Workers: 2}, Campaign{Cells: cells, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "cold", cold, want)
	if st.Len() != len(cells) {
		t.Fatalf("cold run stored %d of %d cells", st.Len(), len(cells))
	}
	var executed atomic.Int64
	counting := &countingExecutor{n: &executed}
	warm, err := Run(context.Background(), counting, Campaign{Cells: cells, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "warm", warm, want)
	if executed.Load() != 0 {
		t.Fatalf("warm run executed %d cells; all %d should have been store hits", executed.Load(), len(cells))
	}
	s := st.Stats()
	if s.Hits != uint64(len(cells)) {
		t.Fatalf("warm run recorded %d hits, want %d", s.Hits, len(cells))
	}
	// A partial warm run: evict-free store with one novel cell appended —
	// only the novel cell executes, and indexes stay absolute.
	extra := append(append([]Cell{}, cells...), CellSpec{
		Key:      "novel",
		CacheKey: "streamit/Serpent",
		Workload: WorkloadSpec{StreamIt: "Serpent"},
		ScaleCCR: true,
		CCR:      1,
		P:        2,
		Q:        2,
		Opts:     core.Options{Seed: 99, DPA1DMaxStates: 60_000},
	}.Cell())
	mixed, err := Run(context.Background(), &PoolExecutor{Workers: 2}, Campaign{Cells: extra, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "mixed-prefix", mixed[:len(cells)], want)
	last := mixed[len(cells)]
	if last.Index != len(cells) || last.Key != "novel" || last.Err != nil {
		t.Fatalf("novel cell misrecorded: %+v", last)
	}
}

// countingExecutor counts the cells the executor actually ran.
type countingExecutor struct{ n *atomic.Int64 }

func (e *countingExecutor) Execute(ctx context.Context, n int, fn func(int)) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.n.Add(1)
		fn(i)
	}
	return nil
}
