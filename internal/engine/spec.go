package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

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
	// Workload identifies the workload; the registry rebuilds the seeded
	// instance from it.
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

// Validate checks that the spec is well-formed and its workload kind is
// registered, without building anything.
func (s CellSpec) Validate() error {
	if s.P < 1 || s.Q < 1 {
		return fmt.Errorf("engine: cell %q has invalid grid %dx%d", s.Key, s.P, s.Q)
	}
	if _, _, err := s.Workload.kindParams(); err != nil {
		return fmt.Errorf("engine: cell %q: %w", s.Key, err)
	}
	return nil
}

// Cell wraps the spec into an executable cell.
func (s CellSpec) Cell() Cell { return Cell{Spec: s} }

func (s CellSpec) maxDivisions() int {
	if s.MaxDivisions > 0 {
		return s.MaxDivisions
	}
	return DefaultMaxDivisions
}

// WorkloadSpec declaratively identifies one workload. Exactly one variant
// must be set: a StreamIt application name (Table 1), random-SPG generation
// parameters, an inline SPG graph, or a custom registered kind with raw
// parameters. The built-in variants resolve through the same registry as
// custom kinds, so every workload a cell can name is rebuildable from its
// JSON form alone.
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
	// Kind/Params name a custom workload kind registered with
	// RegisterWorkload.
	Kind   string          `json:"kind,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
}

// RandomWorkload are the randspg generation parameters of one random SPG;
// the same values always regenerate the identical graph.
type RandomWorkload struct {
	N         int     `json:"n"`
	Elevation int     `json:"elevation"`
	Seed      int64   `json:"seed"`
	CCR       float64 `json:"ccr,omitempty"`
	WeightMin float64 `json:"weight_min,omitempty"`
	WeightMax float64 `json:"weight_max,omitempty"`
}

// kindParams lowers the spec onto the registry's (kind, params) plane. The
// built-in variants marshal their typed parameters; a custom kind passes
// Kind/Params through verbatim.
func (w WorkloadSpec) kindParams() (string, json.RawMessage, error) {
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
	if w.Kind != "" {
		set++
	}
	if set != 1 {
		return "", nil, fmt.Errorf("engine: workload spec must set exactly one variant, has %d", set)
	}
	var (
		kind string
		v    any
	)
	switch {
	case w.StreamIt != "":
		kind, v = KindStreamIt, w.StreamIt
	case w.Random != nil:
		kind, v = KindRandom, w.Random
	case w.Inline != nil:
		kind, v = KindInline, w.Inline
	default:
		if lookupWorkload(w.Kind) == nil {
			return "", nil, fmt.Errorf("engine: unknown workload kind %q", w.Kind)
		}
		return w.Kind, w.Params, nil
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
	kind, params, err := w.kindParams()
	if err != nil {
		return "", err
	}
	switch kind {
	case KindStreamIt:
		var name string
		if err := json.Unmarshal(params, &name); err != nil {
			return "", err
		}
		a, err := streamit.ByName(name)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("streamit/%s/n=%d/y=%d/x=%d", a.Name, a.N, a.YMax, a.XMax), nil
	case KindRandom:
		var rw RandomWorkload
		if err := json.Unmarshal(params, &rw); err != nil {
			return "", err
		}
		key := fmt.Sprintf("randspg/n=%d/y=%d/seed=%d/ccr=%x", rw.N, rw.Elevation, rw.Seed, rw.CCR)
		// Non-default weight bounds change the generated graph, so they are
		// part of the identity; the default keeps the legacy key unchanged.
		if rw.WeightMin != 0 || rw.WeightMax != 0 {
			key += fmt.Sprintf("/w=%x-%x", rw.WeightMin, rw.WeightMax)
		}
		return key, nil
	default:
		sum := sha256.Sum256(params)
		return "spec/" + kind + "/" + hex.EncodeToString(sum[:16]), nil
	}
}

// Build deterministically synthesizes the workload's family-base analysis by
// resolving the spec through the workload registry.
func (w WorkloadSpec) Build() (*spg.Analysis, error) {
	kind, params, err := w.kindParams()
	if err != nil {
		return nil, err
	}
	b := lookupWorkload(kind)
	if b == nil {
		return nil, fmt.Errorf("engine: unknown workload kind %q", kind)
	}
	return b(params)
}

// Built-in workload kinds.
const (
	KindStreamIt = "streamit"
	KindRandom   = "random"
	KindInline   = "inline"
)

// WorkloadBuilder synthesizes the family-base analysis of one workload kind
// from its JSON parameters. Builders must be pure: the same parameters must
// always produce a bit-identical graph, because a spec may be rebuilt on any
// worker of a dispatched run, several times (retries after worker failures).
type WorkloadBuilder func(params json.RawMessage) (*spg.Analysis, error)

var workloadRegistry = struct {
	mu sync.RWMutex
	m  map[string]WorkloadBuilder
}{m: map[string]WorkloadBuilder{
	KindStreamIt: buildStreamIt,
	KindRandom:   buildRandom,
	KindInline:   buildInline,
}}

// RegisterWorkload adds a custom workload kind to the registry, so cells can
// name it. Registering an empty kind, a nil builder or a duplicate kind
// panics — kinds are program wiring, not data. For a kind to work across a
// cluster every worker process must register it too.
func RegisterWorkload(kind string, b WorkloadBuilder) {
	if kind == "" || b == nil {
		panic("engine: RegisterWorkload with empty kind or nil builder")
	}
	workloadRegistry.mu.Lock()
	defer workloadRegistry.mu.Unlock()
	if _, dup := workloadRegistry.m[kind]; dup {
		panic(fmt.Sprintf("engine: workload kind %q registered twice", kind))
	}
	workloadRegistry.m[kind] = b
}

func lookupWorkload(kind string) WorkloadBuilder {
	workloadRegistry.mu.RLock()
	defer workloadRegistry.mu.RUnlock()
	return workloadRegistry.m[kind]
}

func buildStreamIt(params json.RawMessage) (*spg.Analysis, error) {
	var name string
	if err := json.Unmarshal(params, &name); err != nil {
		return nil, fmt.Errorf("engine: streamit workload: %w", err)
	}
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

func buildRandom(params json.RawMessage) (*spg.Analysis, error) {
	var rw RandomWorkload
	if err := json.Unmarshal(params, &rw); err != nil {
		return nil, fmt.Errorf("engine: random workload: %w", err)
	}
	g, err := randspg.Generate(randspg.Params{
		N:         rw.N,
		Elevation: rw.Elevation,
		Seed:      rw.Seed,
		CCR:       rw.CCR,
		WeightMin: rw.WeightMin,
		WeightMax: rw.WeightMax,
	})
	if err != nil {
		return nil, err
	}
	return spg.NewAnalysis(g), nil
}

func buildInline(params json.RawMessage) (*spg.Analysis, error) {
	var g spg.Graph
	if err := json.Unmarshal(params, &g); err != nil {
		return nil, fmt.Errorf("engine: inline workload: %w", err)
	}
	an := spg.NewAnalysis(&g)
	if err := an.Validate(); err != nil {
		return nil, fmt.Errorf("engine: inline workload: %w", err)
	}
	return an, nil
}
