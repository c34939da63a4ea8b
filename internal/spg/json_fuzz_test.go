package spg_test

import (
	"bytes"
	"reflect"
	"testing"

	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// FuzzGraphJSON drives the inline-graph wire form: decoding arbitrary bytes
// and validating the result must never panic, and every graph that decodes
// and validates must re-encode to a graph with the same stages and edges
// that validates again. The corpus is seeded with the Table 1 graphs, the
// inline graphs the service and the command-line tools accept.
func FuzzGraphJSON(f *testing.F) {
	for _, a := range streamit.Suite() {
		g, err := a.BaseGraph()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"stages":[{"weight":1,"x":1,"y":1},{"weight":2,"x":2,"y":1}],"edges":[{"src":0,"dst":1,"volume":1}]}`))
	f.Add([]byte(`{"stages":[{"weight":1,"x":1,"y":1}],"edges":[{"src":0,"dst":5,"volume":1}]}`))
	f.Add([]byte(`{"stages":[{"weight":1,"x":1,"y":1},{"weight":1,"x":2,"y":1}],"edges":[{"src":1,"dst":0,"volume":1},{"src":0,"dst":1,"volume":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := spg.ReadJSON(bytes.NewReader(data))
		if err != nil || g.Validate() != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted graph does not encode: %v", err)
		}
		back, err := spg.ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-encoded graph does not decode: %v", err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("re-decoded graph invalid: %v", err)
		}
		if !reflect.DeepEqual(back.Stages, g.Stages) || !reflect.DeepEqual(back.Edges, g.Edges) {
			t.Fatalf("graph drifted through JSON:\n got %+v %+v\nwant %+v %+v", back.Stages, back.Edges, g.Stages, g.Edges)
		}
	})
}
