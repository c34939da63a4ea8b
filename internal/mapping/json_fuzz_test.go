package mapping_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"spgcmp/internal/core"
	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/streamit"
)

// FuzzWireMapping decodes arbitrary bytes as a WireMapping and rebuilds it
// with Mapping, on a platform of the embedded grid when that grid is at most
// 8x8 (a fixed 2x2 one otherwise, which the grid check must reject). That
// never panics, and every accepted mapping re-encodes to its canonical Wire
// form, which decodes and rebuilds to the same value and the same bytes.
func FuzzWireMapping(f *testing.F) {
	app, err := streamit.ByName("FMRadio")
	if err != nil {
		f.Fatal(err)
	}
	g, err := app.Graph()
	if err != nil {
		f.Fatal(err)
	}
	pl := platform.XScale(4, 4)
	inst := core.NewInstance(g, pl, 1)
	// An XY-routed mapping and one with pinned snake paths.
	for _, h := range []core.Heuristic{core.NewGreedy(), core.NewDPA2D1D()} {
		sol, err := h.Solve(inst)
		if err != nil {
			f.Fatalf("%s: %v", h.Name(), err)
		}
		b, err := json.Marshal(sol.Mapping.Wire(pl))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"p":2,"q":2,"alloc":[[0,0],[1,1]],"cores":[{"u":0,"v":0,"speed_idx":4},{"u":1,"v":1,"speed_idx":0}],"paths":[{"edge":0,"hops":[[0,0,0,1],[0,1,1,1]]}]}`))
	// Duplicate cores and paths (the last wins), an empty path, a stray edge.
	f.Add([]byte(`{"p":1,"q":3,"alloc":[[0,2]],"cores":[{"u":0,"v":2,"speed_idx":1},{"u":0,"v":2,"speed_idx":3}],"paths":[{"edge":-4,"hops":null},{"edge":7,"hops":[]},{"edge":7,"hops":[[0,0,0,1]]}]}`))
	f.Add([]byte(`{"p":3,"q":2,"alloc":[[5,0]]}`))
	f.Add([]byte(`{"p":9,"q":9,"alloc":[]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w mapping.WireMapping
		if json.Unmarshal(data, &w) != nil {
			return
		}
		pl := platform.XScale(2, 2)
		if w.P >= 1 && w.P <= 8 && w.Q >= 1 && w.Q <= 8 {
			pl = platform.XScale(w.P, w.Q)
		}
		m, err := w.Mapping(pl)
		if err != nil {
			return
		}
		canon := m.Wire(pl)
		b, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("encoding the canonical form: %v", err)
		}
		var back mapping.WireMapping
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("decoding the canonical form %s: %v", b, err)
		}
		if !reflect.DeepEqual(&back, canon) {
			t.Fatalf("canonical form %s decodes to %+v, want %+v", b, back, *canon)
		}
		m2, err := back.Mapping(pl)
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", b, err)
		}
		b2, err := json.Marshal(m2.Wire(pl))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("canonical form %s rebuilds to %s", b, b2)
		}
	})
}
