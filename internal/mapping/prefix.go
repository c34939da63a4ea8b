package mapping

import (
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// PrefixAccount is the placement-side energy accounting of the
// branch-and-bound exact solver. Once a partition is complete the cluster
// works are fixed, so the computation energy is exact before any cluster is
// placed (every core runs its cluster at the slowest feasible speed), and
// only the communication hop counts depend on the placement. The account
// therefore splits a mapping's energy into
//
//	Floor       = exact core energies + comm leakage + one hop per
//	              cross-cluster volume (every pair of clusters lands on
//	              distinct cores, so one hop is unavoidable), and
//	hop excess  = the additional (Manhattan-1) hops each placed pair pays,
//
// which makes Floor + running excess an admissible lower bound at every
// placement prefix and (up to float summation order) the exact energy at the
// leaves. Both terms are invariant under grid automorphisms — hop counts are
// Manhattan distances — so pruning on the bound composes soundly with the
// symmetry-orbit canonicity check: a pruned canonical prefix prunes exactly
// what its orbit members would have contributed.
//
// The account is rebuilt per partition with Reset and queried per placement
// step with PlaceExtra; all storage is reused across partitions so the hot
// enumeration loop stays allocation-free. PlaceExtra reads hop counts from
// a HopExcess table built once per solve and shared read-only by every
// worker's account.
type PrefixAccount struct {
	// Floor is the placement-independent energy floor of the current
	// partition: sum of exact per-cluster core energies, the platform's
	// communication leakage, and one hop of link energy per unit of
	// cross-cluster volume.
	Floor float64

	k     int
	works []float64
	// vol[lo*k+hi] (lo < hi) is the total volume between clusters lo and hi,
	// both directions aggregated.
	vol []float64
	// touch lists the (lo, hi) pairs with nonzero volume, so Reset clears
	// only what the previous partition dirtied.
	touch []int32
	// peers[c] lists the clusters d < c that exchange volume with c,
	// precisely the pairs PlaceExtra(c, ...) must price.
	peers [][]int32
	// hops is the HopExcess table of the platform being solved.
	hops []float64
}

// HopExcess returns the per-solve hop table of pl: entry a*NumCores+b is
// float64(Manhattan(a, b)-1), the hops a volume between cores a and b pays
// beyond the one-hop floor. The conversion is exact, so pricing from the
// table is bit-identical to pricing from the distance.
func HopExcess(pl *platform.Platform) []float64 {
	cores := pl.NumCores()
	hops := make([]float64, cores*cores)
	for a := 0; a < cores; a++ {
		ca := platform.Core{U: a / pl.Q, V: a % pl.Q}
		for b := 0; b < cores; b++ {
			hops[a*cores+b] = float64(platform.Manhattan(ca, platform.Core{U: b / pl.Q, V: b % pl.Q}) - 1)
		}
	}
	return hops
}

// NewPrefixAccount returns an account sized for partitions of at most
// maxClusters clusters, pricing placements from hops, the platform's
// HopExcess table (read, never written).
func NewPrefixAccount(maxClusters int, hops []float64) *PrefixAccount {
	a := &PrefixAccount{
		hops:  hops,
		works: make([]float64, maxClusters),
		vol:   make([]float64, maxClusters*maxClusters),
		touch: make([]int32, 0, maxClusters*maxClusters),
		peers: make([][]int32, maxClusters),
	}
	for c := range a.peers {
		a.peers[c] = make([]int32, 0, maxClusters)
	}
	return a
}

// Reset rebuilds the account for the partition part (k clusters) of g at
// period T. It reports false when some cluster's work exceeds the fastest
// speed's capacity, in which case no placement of the partition is feasible.
func (a *PrefixAccount) Reset(g *spg.Graph, pl *platform.Platform, T float64, part []int, k int) bool {
	a.k = k
	for _, pair := range a.touch {
		a.vol[pair] = 0
	}
	a.touch = a.touch[:0]
	for c := 0; c < k; c++ {
		a.works[c] = 0
		a.peers[c] = a.peers[c][:0]
	}
	for i, st := range g.Stages {
		a.works[part[i]] += st.Weight
	}
	floor := pl.CommLeakPower * T
	for c := 0; c < k; c++ {
		_, idx, ok := pl.MinFeasibleSpeed(a.works[c], T)
		if !ok {
			return false
		}
		floor += pl.CoreEnergy(a.works[c], T, idx)
	}
	for _, e := range g.Edges {
		lo, hi := part[e.Src], part[e.Dst]
		if lo == hi {
			continue
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		pair := lo*k + hi
		if a.vol[pair] == 0 {
			a.touch = append(a.touch, int32(pair))
			a.peers[hi] = append(a.peers[hi], int32(lo))
		}
		a.vol[pair] += e.Volume
	}
	for _, pair := range a.touch {
		floor += a.vol[pair] * pl.EnergyPerGB
	}
	a.Floor = floor
	return true
}

// PlaceExtra returns the hop-excess energy that placing cluster c on core
// coreIdx adds over the one-hop floor, given the cores already chosen for
// clusters 0..c-1 in placed: for each earlier peer d, the pair's volume pays
// Manhattan(c, d)-1 additional hops of link energy. The result depends only
// on pairwise Manhattan distances, so it is identical across all grid-
// automorphism images of the prefix.
func (a *PrefixAccount) PlaceExtra(pl *platform.Platform, c, coreIdx int, placed []int) float64 {
	cores := pl.NumCores()
	row := a.hops[coreIdx*cores : (coreIdx+1)*cores]
	var extra float64
	for _, d32 := range a.peers[c] {
		d := int(d32)
		extra += a.vol[d*a.k+c] * row[placed[d]] * pl.EnergyPerGB
	}
	return extra
}

// Peers returns the clusters d < c that exchange volume with cluster c, in
// the order PlaceExtra prices them. The slice is the account's own: read it,
// never write it.
func (a *PrefixAccount) Peers(c int) []int32 { return a.peers[c] }

// Volume returns the total volume between clusters d < c, both directions
// aggregated: the factor PlaceExtra multiplies the pair's hop excess by.
func (a *PrefixAccount) Volume(d, c int) float64 { return a.vol[d*a.k+c] }

// Work returns cluster c's total work under the current partition.
func (a *PrefixAccount) Work(c int) float64 { return a.works[c] }
