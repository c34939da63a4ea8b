package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"spgcmp/internal/core"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// CellSpec is the declarative, JSON-serializable identity of one campaign
// cell: everything solveCell needs — workload identity, CCR, grid, period
// divisions, heuristic options — as plain data. Two equal specs describe the
// same work and, because workload synthesis is seeded, produce bit-identical
// results wherever they execute; that is what lets the Dispatcher ship
// specs to remote workers and treat retries as free. CellSpec is the wire
// form of a Cell, and a Cell is exactly its spec.
type CellSpec struct {
	// Key addresses the cell within its campaign (unique per campaign).
	Key string `json:"key"`
	// CacheKey is the workload family identity consulted in the
	// AnalysisCache — the base (pre-CCR-scaling) analysis shared by every
	// cell of the family. Empty opts the cell out of analysis sharing.
	CacheKey string `json:"cache_key,omitempty"`
	// Workload identifies the workload; Build rebuilds the seeded instance
	// from it.
	Workload WorkloadSpec `json:"workload"`
	// ScaleCCR derives this cell's analysis as the CCR scale-family member
	// of the base; false solves the base as-is (random-SPG cells bake their
	// CCR into generation instead).
	ScaleCCR bool    `json:"scale_ccr,omitempty"`
	CCR      float64 `json:"ccr,omitempty"`
	// P, Q select the CMP grid (the paper's XScale model).
	P int `json:"p"`
	Q int `json:"q"`
	// MaxDivisions caps the period-selection protocol's divisions; 0 selects
	// the paper's DefaultMaxDivisions.
	MaxDivisions int `json:"max_divisions,omitempty"`
	// Opts configures the heuristic set; Opts.Seed drives the Random
	// heuristic of this cell.
	Opts core.Options `json:"opts"`
}

// Validate checks that the spec is well-formed — a grid, exactly one
// workload variant and a DPA1D state budget within 0..core.MaxDPA1DStates —
// without building anything. The budget bound keeps a wire request from
// making DPA1D intern (and reserve room for) billions of states.
func (s CellSpec) Validate() error {
	if s.P < 1 || s.Q < 1 {
		return fmt.Errorf("engine: cell %q has invalid grid %dx%d", s.Key, s.P, s.Q)
	}
	if m := s.Opts.DPA1DMaxStates; m < 0 || m > core.MaxDPA1DStates {
		return fmt.Errorf("engine: cell %q: dpa1d_max_states %d is outside 0..%d", s.Key, m, core.MaxDPA1DStates)
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("engine: cell %q: %w", s.Key, err)
	}
	return nil
}

// Cell wraps the spec into an executable cell.
func (s CellSpec) Cell() Cell { return Cell{Spec: s} }

// Analyze builds the analysis the cell solves the engine's way, without a
// campaign cache: the workload's family base, then its member.
func (s CellSpec) Analyze() (*spg.Analysis, error) {
	base, err := s.Workload.Build()
	if err != nil {
		return nil, err
	}
	return s.member(base), nil
}

// member derives the cell's analysis from its family base: the CCR
// scale-family member when ScaleCCR is set, the base itself otherwise.
func (s CellSpec) member(base *spg.Analysis) *spg.Analysis {
	if s.ScaleCCR {
		return base.ScaleToCCR(s.CCR)
	}
	return base
}

func (s CellSpec) maxDivisions() int {
	if s.MaxDivisions > 0 {
		return s.MaxDivisions
	}
	return DefaultMaxDivisions
}

// WorkloadSpec declaratively identifies one workload. Exactly one variant
// must be set: a StreamIt application name (Table 1), random-SPG generation
// parameters, or an inline SPG graph. Every variant rebuilds from its JSON
// form alone.
type WorkloadSpec struct {
	// StreamIt names a Table 1 application; the cell solves its base
	// (pre-CCR-scaling) synthesis, with the CCR variant derived via
	// CellSpec.ScaleCCR.
	StreamIt string `json:"streamit,omitempty"`
	// Random regenerates a seeded random SPG.
	Random *RandomWorkload `json:"random,omitempty"`
	// Inline carries the SPG itself (the spg JSON graph form) for workloads
	// that have no generative identity.
	Inline *spg.Graph `json:"inline,omitempty"`
}

// RandomWorkload are the randspg generation parameters of one random SPG;
// the same values always regenerate the identical graph.
type RandomWorkload struct {
	N         int     `json:"n"`
	Elevation int     `json:"elevation"`
	Seed      int64   `json:"seed"`
	CCR       float64 `json:"ccr,omitempty"`
}

// MaxStages bounds the stage count of a workload: RandomWorkload.N and an
// inline graph's N(). Neither generation nor analysis can be cancelled, and
// both grow with n (20,000 random stages take about 73 ms and 43 MB to
// build and validate, 200,000 about 0.75 s and 262 MB); the paper's largest
// random graphs have 150 stages, so the bound leaves more than ten times
// that.
const MaxStages = 2000

// Validate reports whether exactly one variant is set, an inline graph has
// at most MaxStages stages, and a random workload's parameters are in
// range: 2 <= n <= MaxStages, elevation >= 1 and a non-negative CCR. Every
// path that builds or keys a workload runs it, and so does every request
// path that lowers one onto a cell.
func (w WorkloadSpec) Validate() error {
	set := 0
	if w.StreamIt != "" {
		set++
	}
	if w.Random != nil {
		set++
	}
	if w.Inline != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("engine: workload spec must set exactly one variant, has %d", set)
	}
	if rw := w.Random; rw != nil {
		switch {
		case rw.N < 2:
			return fmt.Errorf("engine: random workload needs n >= 2, got %d", rw.N)
		case rw.N > MaxStages:
			return fmt.Errorf("engine: random workload needs n <= %d, got %d", MaxStages, rw.N)
		case rw.Elevation < 1:
			return fmt.Errorf("engine: random workload needs elevation >= 1, got %d", rw.Elevation)
		case rw.CCR < 0:
			return fmt.Errorf("engine: random workload ccr %g is negative", rw.CCR)
		}
	}
	if g := w.Inline; g != nil && g.N() > MaxStages {
		return fmt.Errorf("engine: inline workload needs at most %d stages, has %d", MaxStages, g.N())
	}
	return nil
}

// Workload kinds: the names ContentKey hashes ahead of each variant's
// parameters.
const (
	kindStreamIt = "streamit"
	kindRandom   = "random"
	kindInline   = "inline"
)

// kindParams lowers the spec onto the (kind, params) plane ContentKey
// hashes: the variant's kind and the JSON encoding of its parameters.
func (w WorkloadSpec) kindParams() (string, []byte, error) {
	if err := w.Validate(); err != nil {
		return "", nil, err
	}
	var (
		kind string
		v    any
	)
	switch {
	case w.StreamIt != "":
		kind, v = kindStreamIt, w.StreamIt
	case w.Random != nil:
		kind, v = kindRandom, w.Random
	default:
		kind, v = kindInline, w.Inline
	}
	params, err := json.Marshal(v)
	if err != nil {
		return "", nil, err
	}
	return kind, params, nil
}

// FamilyKey derives the canonical campaign-cache identity from the workload
// itself — a pure function of the spec's content, so two specs share a key
// exactly when they describe the same workload family. ExecuteSpecs replaces
// client-supplied cache keys with it, which is what keeps a wire request
// from ever aliasing a foreign family in the shared cache (a spec claiming
// FFT's key while naming DCT would otherwise poison every later FFT solve
// on that worker). It is the single key authority: the experiment
// enumerators delegate here, so a process serving both campaign traffic and
// dispatched ranges warms exactly one cache entry per family.
func (w WorkloadSpec) FamilyKey() (string, error) {
	if err := w.Validate(); err != nil {
		return "", err
	}
	switch {
	case w.StreamIt != "":
		a, err := streamit.ByName(w.StreamIt)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("streamit/%s/n=%d/y=%d/x=%d", a.Name, a.N, a.YMax, a.XMax), nil
	case w.Random != nil:
		rw := w.Random
		return fmt.Sprintf("randspg/n=%d/y=%d/seed=%d/ccr=%x", rw.N, rw.Elevation, rw.Seed, rw.CCR), nil
	default:
		params, err := json.Marshal(w.Inline)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(params)
		return "spec/" + kindInline + "/" + hex.EncodeToString(sum[:16]), nil
	}
}

// Build deterministically synthesizes the workload's family-base analysis.
// Builds are pure: the same spec always produces a bit-identical graph,
// because a spec may be rebuilt on any worker of a dispatched run, several
// times (retries after worker failures).
func (w WorkloadSpec) Build() (*spg.Analysis, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	switch {
	case w.StreamIt != "":
		return buildStreamIt(w.StreamIt)
	case w.Random != nil:
		return buildRandom(w.Random)
	default:
		return buildInline(w.Inline)
	}
}

func buildStreamIt(name string) (*spg.Analysis, error) {
	a, err := streamit.ByName(name)
	if err != nil {
		return nil, err
	}
	g, err := a.BaseGraph()
	if err != nil {
		return nil, err
	}
	return spg.NewAnalysis(g), nil
}

func buildRandom(rw *RandomWorkload) (*spg.Analysis, error) {
	g, err := randspg.Generate(randspg.Params{
		N:         rw.N,
		Elevation: rw.Elevation,
		Seed:      rw.Seed,
		CCR:       rw.CCR,
	})
	if err != nil {
		return nil, err
	}
	return spg.NewAnalysis(g), nil
}

// buildInline analyses a private copy of the graph, taken through its JSON
// form: the caller's graph is never shared with the cache, and a graph the
// wire could not carry (non-finite values) fails here as it would there.
func buildInline(in *spg.Graph) (*spg.Analysis, error) {
	data, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("engine: inline workload: %w", err)
	}
	var g spg.Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("engine: inline workload: %w", err)
	}
	an := spg.NewAnalysis(&g)
	if err := an.Validate(); err != nil {
		return nil, fmt.Errorf("engine: inline workload: %w", err)
	}
	return an, nil
}
