package graph

import (
	"testing"
)

// buildFlatTestGraph returns a small CSR graph, weighted or not.
func buildFlatTestGraph(weighted bool) *Graph {
	edges := []WEdge{
		{0, 1, 3}, {0, 2, 5}, {1, 2, 7}, {2, 3, 1}, {3, 4, 9}, {0, 4, 2},
	}
	if weighted {
		return FromWeightedEdges(5, edges, BuildOpts{Symmetrize: true})
	}
	plain := make([]Edge, len(edges))
	for i, e := range edges {
		plain[i] = Edge{U: e.U, V: e.V}
	}
	return FromEdges(5, plain, BuildOpts{Symmetrize: true})
}

// TestFlatSliceAndFull checks the CSR shortcut against the graph's own
// arrays: slices must alias storage (zero copy, Scratch untouched) for
// every subrange, and Full must equal the whole list.
func TestFlatSliceAndFull(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := buildFlatTestGraph(weighted)
		f := NewFlat(g)
		var s Scratch
		for v := uint32(0); v < g.NumVertices(); v++ {
			deg := g.Degree(v)
			all, allW := g.Neighbors(v), g.NeighborWeights(v)
			for lo := uint32(0); lo <= deg; lo++ {
				for hi := lo; hi <= deg; hi++ {
					nghs, ws := f.Slice(v, lo, hi, &s)
					var wantW []int32
					if weighted {
						wantW = allW[lo:hi]
					}
					checkFlat(t, "Slice", v, lo, hi, nghs, ws, all[lo:hi], wantW)
					if hi > lo && &nghs[0] != &all[lo] {
						t.Fatalf("Slice v=%d [%d,%d) copies instead of aliasing", v, lo, hi)
					}
				}
			}
			nghs, ws := f.Full(v, &s)
			checkFlat(t, "Full", v, 0, deg, nghs, ws, all, allW)
		}
		if s.Nghs != nil || s.Ws != nil {
			t.Fatal("CSR access wrote to the scratch buffer")
		}
	}
}

func checkFlat(t *testing.T, label string, v, lo, hi uint32, nghs []uint32, ws []int32, wantN []uint32, wantW []int32) {
	t.Helper()
	if len(nghs) != len(wantN) {
		t.Fatalf("%s v=%d [%d,%d): %d neighbors, want %d", label, v, lo, hi, len(nghs), len(wantN))
	}
	for i := range nghs {
		if nghs[i] != wantN[i] {
			t.Fatalf("%s v=%d [%d,%d): neighbor %d = %d, want %d", label, v, lo, hi, i, nghs[i], wantN[i])
		}
	}
	if (ws == nil) != (wantW == nil) {
		t.Fatalf("%s v=%d [%d,%d): weights nil=%v, want nil=%v", label, v, lo, hi, ws == nil, wantW == nil)
	}
	for i := range ws {
		if ws[i] != wantW[i] {
			t.Fatalf("%s v=%d [%d,%d): weight %d = %d, want %d", label, v, lo, hi, i, ws[i], wantW[i])
		}
	}
}
