package graph

// This file holds the buffers and the CSR shortcut of the adjacency access
// path. Adj.Range hands the hot loops flat slices — aliases of the
// representation's own storage (CSR) or ranges block-decoded into a
// caller-owned Scratch (byte-compressed, filtered and overlay views) — so
// the per-edge cost is a plain slice iteration and decode cost is
// amortized per block (the Sage design point, §4.1).

import "sage/internal/parallel"

// Scratch is a per-worker decode buffer for Adj.Range. Workers own one
// Scratch each (indexed by the worker id the parallel package exposes) so
// decoding never allocates in steady state. The padding keeps neighboring
// workers' slice headers off one cache line.
type Scratch struct {
	Nghs  []uint32
	Ws    []int32
	inner *Scratch
	_     [8]byte
}

// Inner returns the buffer a composed representation (a filter or an
// overlay over another Adj) decodes its base into, so that the base's
// decode never overwrites the composed result. It is allocated on first
// use and reused for the Scratch's lifetime.
//
//sage:hotpath
func (s *Scratch) Inner() *Scratch {
	if s.inner == nil {
		// One allocation per nesting level for the buffer's lifetime.
		s.inner = new(Scratch) //sage:allow hotalloc
	}
	return s.inner
}

// ScratchPool is a full set of per-worker decode buffers owned by one
// logical run. Worker ids are unique at any instant (the persistent pool
// and the transient fallback both index [0, Workers())), but two
// *concurrent* runs each see the full id range — so buffers shared
// across runs would race. Each run therefore owns a ScratchPool; the
// zero value is ready to use.
type ScratchPool struct {
	ws [parallel.MaxWorkers]Scratch
}

// Get returns worker w's scratch buffer.
//
//sage:hotpath
func (p *ScratchPool) Get(w int) *Scratch { return &p.ws[w] }

// Flat resolves an Adj's CSR shortcut once, outside the hot loop: a
// *Graph is sliced directly, with no interface dispatch per vertex.
type Flat struct {
	csr *Graph // non-nil: zero-copy slice access
	g   Adj
}

// NewFlat inspects g's concrete type and returns its access path.
func NewFlat(g Adj) Flat {
	csr, _ := g.(*Graph)
	return Flat{csr: csr, g: g}
}

// Slice returns the neighbors (and weights; nil means all 1) at positions
// [lo, hi) of v, exactly as g.Range does.
//
//sage:arena-view
//sage:hotpath
func (f *Flat) Slice(v, lo, hi uint32, s *Scratch) ([]uint32, []int32) {
	if f.csr != nil {
		return f.csr.Range(v, lo, hi, s)
	}
	return f.g.Range(v, lo, hi, s)
}

// Full returns v's complete adjacency as flat slices. For CSR it is a
// pure slice expression — no interface dispatch, not even for the degree
// — making it the cheapest per-vertex entry into the hot loops.
//
//sage:arena-view
//sage:hotpath
func (f *Flat) Full(v uint32, s *Scratch) ([]uint32, []int32) {
	if f.csr != nil {
		lo, hi := f.csr.offsets[v], f.csr.offsets[v+1]
		nghs := f.csr.edges[lo:hi]
		if f.csr.weights == nil {
			return nghs, nil
		}
		return nghs, f.csr.weights[lo:hi]
	}
	return f.g.Range(v, 0, f.g.Degree(v), s)
}
