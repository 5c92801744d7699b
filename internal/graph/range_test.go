package graph_test

import (
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"

	"sage/internal/compress"
	"sage/internal/delta"
	"sage/internal/gbbs"
	"sage/internal/gen"
	"sage/internal/gfilter"
	"sage/internal/graph"
)

// refAdj is an independent reference adjacency: v's sorted neighbors
// and, on weighted graphs, their aligned weights.
type refAdj func(v uint32) ([]uint32, []int32)

// csrRef reads the reference straight from a source CSR's arrays.
func csrRef(g *graph.Graph) refAdj {
	return func(v uint32) ([]uint32, []int32) { return g.Neighbors(v), g.NeighborWeights(v) }
}

// keep drops the neighbors u of v with !pred(v, u): the active-edge set a
// full FilterEdges(pred) pass leaves behind.
func keep(ref refAdj, pred func(u, ngh uint32) bool) refAdj {
	return func(v uint32) ([]uint32, []int32) {
		nghs, ws := ref(v)
		var outN []uint32
		var outW []int32
		for i, u := range nghs {
			if pred(v, u) {
				outN = append(outN, u)
				if ws != nil {
					outW = append(outW, ws[i])
				}
			}
		}
		return outN, outW
	}
}

// edgeModel is the overlay's reference: a map-of-maps edge set mutated
// alongside the overlay.
type edgeModel struct {
	weighted bool
	adj      map[uint32]map[uint32]int32
}

func newEdgeModel(g *graph.Graph) *edgeModel {
	m := &edgeModel{weighted: g.Weighted(), adj: map[uint32]map[uint32]int32{}}
	for v := uint32(0); v < g.NumVertices(); v++ {
		ws := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			w := int32(1)
			if ws != nil {
				w = ws[i]
			}
			m.set(v, u, w)
		}
	}
	return m
}

func (m *edgeModel) set(u, v uint32, w int32) {
	if m.adj[u] == nil {
		m.adj[u] = map[uint32]int32{}
	}
	m.adj[u][v] = w
}

func (m *edgeModel) apply(op delta.Op) {
	if op.Del {
		delete(m.adj[op.U], op.V)
		delete(m.adj[op.V], op.U)
		return
	}
	w := op.W
	if !m.weighted || w == 0 {
		w = 1
	}
	m.set(op.U, op.V, w)
	m.set(op.V, op.U, w)
}

func (m *edgeModel) ref(v uint32) ([]uint32, []int32) {
	var nghs []uint32
	for u := range m.adj[v] {
		nghs = append(nghs, u)
	}
	slices.Sort(nghs)
	if !m.weighted {
		return nghs, nil
	}
	ws := make([]int32, len(nghs))
	for i, u := range nghs {
		ws[i] = m.adj[v][u]
	}
	return nghs, ws
}

// overlayOf applies batches of random inserts, deletes and (on weighted
// bases) re-weights of existing edges to an overlay over base, mirroring
// each op in a model built from src, the CSR base holds.
func overlayOf(t *testing.T, base graph.Adj, src *graph.Graph, seed uint64) (*delta.Overlay, *edgeModel) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 7))
	o, m := delta.New(base), newEdgeModel(src)
	n := src.NumVertices()
	for batch := 0; batch < 4; batch++ {
		var ops []delta.Op
		for len(ops) < 150 {
			u := uint32(r.IntN(int(n)))
			var op delta.Op
			switch k := r.IntN(4); {
			case k == 0 && src.Degree(u) > 0: // delete a base edge
				nb := src.Neighbors(u)
				op = delta.Op{U: u, V: nb[r.IntN(len(nb))], Del: true}
			case k == 1 && src.Degree(u) > 0 && src.Weighted(): // re-weight a base edge
				nb := src.Neighbors(u)
				op = delta.Op{U: u, V: nb[r.IntN(len(nb))], W: int32(r.IntN(50)) + 100}
			default: // insert (or delete) a random pair
				op = delta.Op{U: u, V: uint32(r.IntN(int(n))), Del: k == 2}
				if src.Weighted() {
					op.W = int32(r.IntN(50)) + 1
				}
			}
			if op.U != op.V {
				ops = append(ops, op)
			}
		}
		var err error
		if o, err = o.Apply(ops); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			m.apply(op)
		}
	}
	return o, m
}

// TestRangeConformance checks Adj.Range on every representation against
// an independent reference, over random [lo, hi) ranges plus the edge
// cases: hi past the degree, empty and inverted ranges, and ranges that
// straddle a block boundary. ws must be nil exactly when the graph is
// unweighted.
func TestRangeConformance(t *testing.T) {
	base := gen.RMAT(9, 12, 5)
	wbase := gen.AddUniformWeights(base, 3)
	pred := func(u, ngh uint32) bool { return (u+ngh)%3 != 0 }

	type rep struct {
		name string
		adj  graph.Adj
		ref  refAdj
	}
	reps := []rep{
		{"csr", base, csrRef(base)},
		{"csr-weighted", wbase, csrRef(wbase)},
	}
	for _, bs := range []int{16, 64, 256} {
		reps = append(reps,
			rep{"cgraph" + strconv.Itoa(bs), compress.Compress(base, bs), csrRef(base)},
			rep{"cgraph" + strconv.Itoa(bs) + "-weighted", compress.Compress(wbase, bs), csrRef(wbase)})
	}

	fcsr := gfilter.New(base, 64, nil)
	fcsr.FilterEdges(pred)
	fc64 := gfilter.New(compress.Compress(base, 64), 0, nil)
	fc64.FilterEdges(pred)
	mut := gbbs.NewMutFilter(base, 0, nil)
	mut.FilterEdges(pred)
	reps = append(reps,
		rep{"filter-csr", fcsr, keep(csrRef(base), pred)},
		rep{"filter-cgraph64", fc64, keep(csrRef(base), pred)},
		rep{"mutfilter", mut, keep(csrRef(base), pred)})

	ow, mw := overlayOf(t, wbase, wbase, 1)
	oc, mc := overlayOf(t, compress.Compress(base, 64), base, 2)
	// Filter over overlay over CGraph: three decode levels in one Scratch.
	nested := gfilter.New(oc, 64, nil)
	nested.FilterEdges(pred)
	reps = append(reps,
		rep{"overlay-csr-weighted", ow, mw.ref},
		rep{"overlay-cgraph64", oc, mc.ref},
		rep{"filter-overlay-cgraph64", nested, keep(mc.ref, pred)})

	for _, rp := range reps {
		t.Run(rp.name, func(t *testing.T) {
			g := rp.adj
			bs := uint32(g.BlockSize())
			if bs == 0 {
				bs = 64
			}
			var s graph.Scratch
			check := func(v, lo, hi uint32) {
				t.Helper()
				wantN, wantW := rp.ref(v)
				deg := uint32(len(wantN))
				if g.Degree(v) != deg {
					t.Fatalf("Degree(%d) = %d, want %d", v, g.Degree(v), deg)
				}
				end := min(hi, deg)
				start := min(lo, end)
				nghs, ws := g.Range(v, lo, hi, &s)
				if !slices.Equal(nghs, wantN[start:end]) {
					t.Fatalf("Range(%d, %d, %d) = %v, want %v", v, lo, hi, nghs, wantN[start:end])
				}
				if !g.Weighted() {
					if ws != nil {
						t.Fatalf("Range(%d, %d, %d): weights on an unweighted graph", v, lo, hi)
					}
					return
				}
				if len(nghs) > 0 && ws == nil {
					t.Fatalf("Range(%d, %d, %d): nil weights on a weighted graph", v, lo, hi)
				}
				if !slices.Equal(ws, wantW[start:end]) {
					t.Fatalf("Range(%d, %d, %d) weights = %v, want %v", v, lo, hi, ws, wantW[start:end])
				}
			}
			r := rand.New(rand.NewPCG(uint64(len(rp.name)), 99))
			n := g.NumVertices()
			for v := uint32(0); v < n; v++ {
				d := g.Degree(v)
				check(v, 0, d)
				check(v, 0, d+5)
				check(v, 0, ^uint32(0))
				check(v, d/2, d/2)
				check(v, d/2+1, d/2)
				if d > bs+1 {
					check(v, bs-1, bs+1)
					check(v, bs/2, d-1)
				}
			}
			for trial := 0; trial < 2000; trial++ {
				v := uint32(r.IntN(int(n)))
				d := g.Degree(v)
				lo := uint32(r.IntN(int(d) + 1))
				check(v, lo, lo+uint32(r.IntN(int(d-lo)+2)))
			}
		})
	}

	// Steady state never allocates, even through three decode levels.
	var s graph.Scratch
	allocs := testing.AllocsPerRun(3, func() {
		for v := uint32(0); v < nested.NumVertices(); v++ {
			nested.Range(v, 0, nested.Degree(v), &s)
		}
	})
	if allocs != 0 {
		t.Fatalf("nested Range allocates %.1f times per sweep in steady state", allocs)
	}
}
