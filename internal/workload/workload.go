// Package workload parses the textual workload flag shared by the
// command-line tools:
//
//	streamit:<Name>            one of the 12 Table 1 workflows
//	random:n=50,elev=8,seed=1  a random SPG (randspg)
//	chain:n=10,seed=1          a linear chain
//	file:<path>                a JSON graph written by spggen / Graph.WriteJSON
//
// It is the text layer only: it builds no graph and opens no file.
// experiments.FlagCell lowers a parsed Spec onto the engine cell that
// /v1/map builds for the same workload.
package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// Workload kinds, the text before the colon of a spec.
const (
	StreamIt = "streamit"
	Random   = "random"
	Chain    = "chain"
	File     = "file"
)

// Spec is one parsed workload flag. Name is the application (streamit:) or
// the path (file:); N, Elevation and Seed are the random: and chain:
// arguments with their defaults applied.
type Spec struct {
	Kind      string
	Name      string
	N         int
	Elevation int
	Seed      int64
}

// Parse splits a workload spec into its kind and arguments. An argument key
// the kind does not take is an error naming the keys it does take. Argument
// values are parsed, not range-checked: the lowering applies the same checks
// a /v1/map request gets.
func Parse(spec string) (Spec, error) {
	kind, rest, found := strings.Cut(spec, ":")
	if !found {
		return Spec{}, fmt.Errorf("workload: spec %q must look like kind:args (streamit:, random:, chain:, file:)", spec)
	}
	s := Spec{Kind: kind}
	keys := "n, seed"
	switch kind {
	case StreamIt, File:
		s.Name = rest
		return s, nil
	case Random:
		s.N, s.Elevation, s.Seed = 50, 5, 1
		keys = "n, elev, seed"
	case Chain:
		s.N, s.Seed = 10, 1
	default:
		return Spec{}, fmt.Errorf("workload: unknown kind %q", kind)
	}
	if rest == "" {
		return s, nil
	}
	for _, part := range strings.Split(rest, ",") {
		k, v, found := strings.Cut(part, "=")
		if !found {
			return Spec{}, fmt.Errorf("workload: bad argument %q (want key=value)", part)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		var err error
		switch {
		case k == "n":
			s.N, err = strconv.Atoi(v)
		case k == "elev" && kind == Random:
			s.Elevation, err = strconv.Atoi(v)
		case k == "seed":
			s.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return Spec{}, fmt.Errorf("workload: %s: takes no argument %q (keys: %s)", kind, k, keys)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("workload: argument %s: %w", k, err)
		}
	}
	return s, nil
}

// ParseGrid parses "4x4" into (4, 4).
func ParseGrid(s string) (p, q int, err error) {
	a, b, found := strings.Cut(s, "x")
	if !found {
		return 0, 0, fmt.Errorf("workload: grid %q must look like PxQ", s)
	}
	p, err = strconv.Atoi(a)
	if err != nil {
		return 0, 0, err
	}
	q, err = strconv.Atoi(b)
	if err != nil {
		return 0, 0, err
	}
	if p < 1 || q < 1 {
		return 0, 0, fmt.Errorf("workload: grid %dx%d out of range", p, q)
	}
	return p, q, nil
}
