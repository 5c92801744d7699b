package graph

import (
	"sage/internal/parallel"
)

// BuildOpts controls edge-list preprocessing during construction.
type BuildOpts struct {
	// Symmetrize adds the reverse of every arc before building, producing
	// an undirected graph (the paper symmetrizes all inputs, §5.1.3).
	Symmetrize bool
	// KeepSelfLoops retains self loops (dropped by default per §2).
	KeepSelfLoops bool
	// KeepDuplicates retains parallel edges (deduplicated by default).
	KeepDuplicates bool
}

// FromEdges builds an unweighted CSR graph over n vertices from the given
// arcs. The input slice is not modified. Construction is parallel: sort by
// (U, V), filter self loops/duplicates, compute offsets by scan, and fill.
func FromEdges(n uint32, edges []Edge, opts BuildOpts) *Graph {
	work := make([]Edge, 0, len(edges)*boostFactor(opts))
	work = append(work, edges...)
	if opts.Symmetrize {
		rev := parallel.Map(edges, func(e Edge) Edge { return Edge{U: e.V, V: e.U} })
		work = append(work, rev...)
	}
	parallel.Sort(work, func(a, b Edge) bool {
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	work = parallel.FilterIndex(work, func(i int, e Edge) bool {
		if !opts.KeepSelfLoops && e.U == e.V {
			return false
		}
		if !opts.KeepDuplicates && i > 0 && work[i-1] == e {
			return false
		}
		return true
	})
	return fromSortedEdges(n, work, nil)
}

// FromWeightedEdges builds a weighted CSR graph. For duplicate arcs the
// smallest weight is kept (they are adjacent after sorting).
func FromWeightedEdges(n uint32, edges []WEdge, opts BuildOpts) *Graph {
	work := make([]WEdge, 0, len(edges)*boostFactor(opts))
	work = append(work, edges...)
	if opts.Symmetrize {
		rev := parallel.Map(edges, func(e WEdge) WEdge { return WEdge{U: e.V, V: e.U, W: e.W} })
		work = append(work, rev...)
	}
	parallel.Sort(work, func(a, b WEdge) bool {
		if a.U != b.U {
			return a.U < b.U
		}
		if a.V != b.V {
			return a.V < b.V
		}
		return a.W < b.W
	})
	work = parallel.FilterIndex(work, func(i int, e WEdge) bool {
		if !opts.KeepSelfLoops && e.U == e.V {
			return false
		}
		if !opts.KeepDuplicates && i > 0 &&
			work[i-1].U == e.U && work[i-1].V == e.V {
			return false
		}
		return true
	})
	plain := make([]Edge, len(work))
	weights := make([]int32, len(work))
	parallel.For(len(work), 0, func(i int) {
		plain[i] = Edge{U: work[i].U, V: work[i].V}
		weights[i] = work[i].W
	})
	return fromSortedEdges(n, plain, weights)
}

func boostFactor(opts BuildOpts) int {
	if opts.Symmetrize {
		return 2
	}
	return 1
}

// fromSortedEdges assumes edges are sorted by (U, V) and already filtered.
func fromSortedEdges(n uint32, edges []Edge, weights []int32) *Graph {
	m := uint64(len(edges))
	counts := make([]uint64, n+1)
	parallel.For(len(edges), 0, func(i int) {
		// Count degree via run boundaries: position i belongs to edges[i].U.
		// Using atomic-free counting: each run start writes the run length.
		if i == 0 || edges[i-1].U != edges[i].U {
			j := i + 1
			for j < len(edges) && edges[j].U == edges[i].U {
				j++
			}
			counts[edges[i].U] = uint64(j - i)
		}
	})
	parallel.Scan(counts)
	flat := make([]uint32, m)
	parallel.For(len(edges), 0, func(i int) { flat[i] = edges[i].V })
	g := &Graph{n: n, m: m, offsets: counts, edges: flat, weights: weights}
	return g
}
