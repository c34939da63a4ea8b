// Package platform models the target chip multiprocessor (CMP) of the paper:
// a p x q grid of homogeneous DVFS-capable cores connected by bidirectional
// horizontal and vertical links of identical bandwidth (Section 3.2), with
// the Intel XScale speed/power model used in the simulations (Section 6.1.2).
package platform

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Core identifies one core of the grid by its (row, column) coordinates,
// 0-based. The paper writes C_{u,v} with 1-based u (row) and v (column).
type Core struct {
	U int // row, 0..P-1
	V int // column, 0..Q-1
}

func (c Core) String() string { return fmt.Sprintf("C(%d,%d)", c.U+1, c.V+1) }

// Link is a directed communication link between two neighbouring cores. Each
// physical link of the paper is bidirectional with bandwidth BW in each
// direction, so it is modelled as two Links.
type Link struct {
	From Core
	To   Core
}

func (l Link) String() string { return fmt.Sprintf("%v->%v", l.From, l.To) }

// Platform describes a CMP configuration.
type Platform struct {
	P int // number of rows
	Q int // number of columns

	// Speeds lists the available core speeds in GHz, strictly increasing.
	Speeds []float64
	// DynPower[k] is the dynamic power (W) dissipated by a core running at
	// Speeds[k].
	DynPower []float64
	// LeakPower is P_leak^(comp): the static power (W) of an enrolled core,
	// paid over the whole period.
	LeakPower float64
	// CommLeakPower is P_leak^(comm): the aggregated static power (W) of the
	// routers and links, paid once per platform over the whole period. The
	// paper sets it to 0 without loss of generality.
	CommLeakPower float64
	// BW is the link bandwidth in GB/s, per direction.
	BW float64
	// EnergyPerGB is the dynamic energy (J) to move one GB across one link
	// (the paper's E(bit), converted: 6 pJ/bit = 0.048 J/GB).
	EnergyPerGB float64
}

// XScale returns a p x q platform with the Intel XScale model used throughout
// the paper's simulations: speeds {0.15, 0.4, 0.6, 0.8, 1} GHz with dynamic
// powers {80, 170, 400, 900, 1600} mW, 80 mW leakage per enrolled core,
// 16-byte-wide links at 1.2 GHz (BW = 19.2 GB/s) and E(bit) = 6 pJ.
func XScale(p, q int) *Platform {
	return &Platform{
		P:           p,
		Q:           q,
		Speeds:      []float64{0.15, 0.4, 0.6, 0.8, 1.0},
		DynPower:    []float64{0.080, 0.170, 0.400, 0.900, 1.600},
		LeakPower:   0.080,
		BW:          16 * 1.2,
		EnergyPerGB: 6e-12 * 8e9,
	}
}

// Validate checks the structural consistency of the platform description.
func (pl *Platform) Validate() error {
	if pl.P < 1 || pl.Q < 1 {
		return fmt.Errorf("platform: invalid grid %dx%d", pl.P, pl.Q)
	}
	if len(pl.Speeds) == 0 {
		return errors.New("platform: no speeds")
	}
	if len(pl.DynPower) != len(pl.Speeds) {
		return fmt.Errorf("platform: %d speeds but %d dynamic powers", len(pl.Speeds), len(pl.DynPower))
	}
	if !sort.Float64sAreSorted(pl.Speeds) {
		return errors.New("platform: speeds must be sorted increasing")
	}
	for i, s := range pl.Speeds {
		if s <= 0 {
			return fmt.Errorf("platform: speed %d is not positive", i)
		}
		if i > 0 && pl.Speeds[i] == pl.Speeds[i-1] {
			return fmt.Errorf("platform: duplicate speed %g", s)
		}
	}
	for i, p := range pl.DynPower {
		if p < 0 {
			return fmt.Errorf("platform: dynamic power %d is negative", i)
		}
	}
	if pl.BW <= 0 {
		return errors.New("platform: bandwidth must be positive")
	}
	if pl.EnergyPerGB < 0 || pl.LeakPower < 0 || pl.CommLeakPower < 0 {
		return errors.New("platform: negative energy constants")
	}
	return nil
}

// NumCores returns p*q.
func (pl *Platform) NumCores() int { return pl.P * pl.Q }

// MaxSpeed returns the fastest available speed.
func (pl *Platform) MaxSpeed() float64 { return pl.Speeds[len(pl.Speeds)-1] }

// MinSpeed returns the slowest available speed.
func (pl *Platform) MinSpeed() float64 { return pl.Speeds[0] }

// InBounds reports whether c is a valid core of the grid.
func (pl *Platform) InBounds(c Core) bool {
	return c.U >= 0 && c.U < pl.P && c.V >= 0 && c.V < pl.Q
}

// Adjacent reports whether a and b are distinct neighbouring cores.
func (pl *Platform) Adjacent(a, b Core) bool {
	if !pl.InBounds(a) || !pl.InBounds(b) {
		return false
	}
	du, dv := a.U-b.U, a.V-b.V
	return (du == 0 && (dv == 1 || dv == -1)) || (dv == 0 && (du == 1 || du == -1))
}

// Links enumerates every directed link of the grid.
func (pl *Platform) Links() []Link {
	var links []Link
	for u := 0; u < pl.P; u++ {
		for v := 0; v < pl.Q; v++ {
			c := Core{u, v}
			if u+1 < pl.P {
				d := Core{u + 1, v}
				links = append(links, Link{c, d}, Link{d, c})
			}
			if v+1 < pl.Q {
				d := Core{u, v + 1}
				links = append(links, Link{c, d}, Link{d, c})
			}
		}
	}
	return links
}

// SpeedIndex returns the index of speed s in Speeds, or -1 if s is not an
// available speed (within a small tolerance).
func (pl *Platform) SpeedIndex(s float64) int {
	for i, v := range pl.Speeds {
		if math.Abs(v-s) <= 1e-12*math.Max(1, v) {
			return i
		}
	}
	return -1
}

// MinFeasibleSpeed returns the slowest speed able to process the given work
// (Gcycles) within period T (seconds), i.e. the smallest s with work/s <= T.
// The boolean result is false when even the fastest speed is too slow. This
// is the per-core speed selection rule used by every heuristic: with dynamic
// power superlinear in speed, the slowest feasible speed minimizes energy.
func (pl *Platform) MinFeasibleSpeed(work, T float64) (speed float64, idx int, ok bool) {
	if work < 0 || T <= 0 {
		return 0, -1, false
	}
	for i, s := range pl.Speeds {
		if work <= T*s*(1+1e-12) {
			return s, i, true
		}
	}
	return 0, -1, false
}

// CoreEnergy returns the energy consumed by one enrolled core over a period:
// the leakage term LeakPower*T plus the dynamic term (work/speed)*DynPower.
// idx must be a valid speed index.
func (pl *Platform) CoreEnergy(work, T float64, idx int) float64 {
	return pl.LeakPower*T + work/pl.Speeds[idx]*pl.DynPower[idx]
}

// LinkCapacity returns the volume (GB) one directed link can carry within a
// period T.
func (pl *Platform) LinkCapacity(T float64) float64 { return pl.BW * T }
