package exact

// Search-space helpers shared by the branch-and-bound engine and the
// exhaustive oracle its equivalence tests diff against: the DAG-partition
// rule, the grid automorphisms behind orbit pruning, and the mapping a
// (partition, placement) pair denotes.

import (
	"fmt"

	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// quotientBuf is quotientAcyclic's working storage for partitions of at
// most maxK clusters. Each caller owns one for its whole search, so the
// check runs once per complete partition without allocating.
type quotientBuf struct {
	adj   []bool // adj[a*k+b]: some edge runs from cluster a to cluster b
	indeg []int
	queue []int
}

func newQuotientBuf(maxK int) *quotientBuf {
	return &quotientBuf{
		adj:   make([]bool, maxK*maxK),
		indeg: make([]int, maxK),
		queue: make([]int, 0, maxK),
	}
}

// quotientAcyclic checks the DAG-partition rule for a candidate partition
// of k clusters, k at most the maxK buf was sized for.
func quotientAcyclic(g *spg.Graph, part []int, k int, buf *quotientBuf) bool {
	adj, indeg := buf.adj[:k*k], buf.indeg[:k]
	clear(adj)
	clear(indeg)
	for _, e := range g.Edges {
		a, b := part[e.Src], part[e.Dst]
		if a != b && !adj[a*k+b] {
			adj[a*k+b] = true
			indeg[b]++
		}
	}
	queue := buf.queue[:0]
	for i := 0; i < k; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for w := 0; w < k; w++ {
			if adj[v*k+w] {
				indeg[w]--
				if indeg[w] == 0 {
					queue = append(queue, w)
				}
			}
		}
	}
	return len(queue) == k
}

// gridSymmetries returns the non-identity automorphisms of the p x q grid as
// core-index permutations: the axis flips (horizontal, vertical, both) and —
// on square grids — their compositions with the transpose, the full dihedral
// group of order 8. The enumeration prunes placements that are not the
// lexicographically minimal member of their orbit under these permutations,
// cutting the placement work by up to the group order (~1/8 on square grids,
// ~1/4 on rectangular ones): cores are homogeneous and hop counts are
// Manhattan distances, so every orbit member reaches the same energy.
// Degenerate permutations (a flip of a single-row grid is the identity) are
// deduplicated away.
func gridSymmetries(p, q int) [][]int {
	type xform func(u, v int) (int, int)
	var xfs []xform
	flips := []xform{
		func(u, v int) (int, int) { return u, v },
		func(u, v int) (int, int) { return p - 1 - u, v },
		func(u, v int) (int, int) { return u, q - 1 - v },
		func(u, v int) (int, int) { return p - 1 - u, q - 1 - v },
	}
	xfs = append(xfs, flips[1:]...)
	if p == q {
		for _, f := range flips {
			f := f
			xfs = append(xfs, func(u, v int) (int, int) { return f(v, u) })
		}
	}
	var perms [][]int
	seen := make(map[string]bool)
	id := make([]int, p*q)
	for i := range id {
		id[i] = i
	}
	seen[fmt.Sprint(id)] = true // never include the identity
	for _, f := range xfs {
		perm := make([]int, p*q)
		for u := 0; u < p; u++ {
			for v := 0; v < q; v++ {
				nu, nv := f(u, v)
				perm[u*q+v] = nu*q + nv
			}
		}
		if key := fmt.Sprint(perm); !seen[key] {
			seen[key] = true
			perms = append(perms, perm)
		}
	}
	return perms
}

// buildMapping returns the mapping that puts every stage of cluster c on
// core place[c] at the slowest speeds meeting T, or nil when none does.
func buildMapping(g *spg.Graph, pl *platform.Platform, T float64, part, place []int) *mapping.Mapping {
	m := mapping.New(g.N(), pl)
	for i := range g.Stages {
		coreIdx := place[part[i]]
		m.Alloc[i] = platform.Core{U: coreIdx / pl.Q, V: coreIdx % pl.Q}
	}
	if !m.DowngradeSpeeds(g, pl, T) {
		return nil
	}
	return m
}
