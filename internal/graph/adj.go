package graph

// Adj is the read-only adjacency interface shared by the uncompressed CSR
// representation (*Graph) and the byte-compressed representation
// (*compress.CGraph). The traversal layer, the graph filter, and the
// algorithms are generic over it, so every algorithm runs unchanged on
// either representation — mirroring how Sage inherits Ligra+'s compressed
// formats (§2, §4.2.1).
type Adj interface {
	// NumVertices returns n.
	NumVertices() uint32
	// NumEdges returns the number of stored arcs m.
	NumEdges() uint64
	// Degree returns deg(v).
	//sage:hotpath
	Degree(v uint32) uint32
	// AvgDegree returns max(1, m/n), the chunking group size davg.
	AvgDegree() uint32
	// EdgeAddr returns the simulated NVRAM word address of the start of
	// v's adjacency data (for the Memory-Mode cache simulator).
	EdgeAddr(v uint32) int64
	// ScanCost returns the simulated NVRAM words read when scanning
	// adjacency positions [lo, hi) of v. For compressed graphs this is
	// block-aligned: partial block reads cost the whole block.
	ScanCost(v uint32, lo, hi uint32) int64
	// Range returns the neighbors at adjacency positions [lo, hi) of v,
	// hi clamped to deg(v), with their aligned weights; ws is nil when the
	// graph is unweighted (every weight is 1). Flat representations (CSR,
	// the GBBS mutable image) return slices aliasing their storage; the
	// others decode into s, which the caller owns. The slices are
	// read-only and valid until the next call with the same s.
	//sage:arena-view
	//sage:hotpath
	Range(v, lo, hi uint32, s *Scratch) (nghs []uint32, ws []int32)
	// BlockSize returns the decode granularity: 0 for CSR (any), or the
	// compression block size.
	BlockSize() int
	// Weighted reports whether edges carry weights.
	Weighted() bool
}
