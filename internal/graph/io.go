package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Legacy (v1) binary serialization of CSR graphs: a little-endian header
// (magic, flags, n, m) followed by the offsets, edges, and (if weighted)
// weights arrays. New files are written in the v2 section container
// (format.go); this reader is kept so existing datasets keep loading, and
// the format registry sniffs its magic.

// MagicV1 identifies the legacy flat binary format ("SAGEGRPH").
const MagicV1 = uint64(0x5341474547525048)

const binaryMagic = MagicV1

const flagWeighted = uint64(1)

// WriteBinary serializes g to w.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var flags uint64
	if g.weights != nil {
		flags |= flagWeighted
	}
	hdr := [4]uint64{binaryMagic, flags, uint64(g.n), g.m}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := writeUint64s(bw, g.offsets); err != nil {
		return err
	}
	if err := writeUint32s(bw, g.edges); err != nil {
		return err
	}
	if g.weights != nil {
		if err := writeInt32s(bw, g.weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary. Before any
// array allocation the declared n and m are validated against the number
// of input bytes actually remaining (discoverable for files and in-memory
// readers), so a corrupt or truncated header yields an error instead of a
// multi-gigabyte allocation attempt.
func ReadBinary(r io.Reader) (*Graph, error) {
	remaining, sized := remainingSize(r)
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("graph header: %w", err)
		}
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("bad magic %#x", hdr[0])
	}
	if hdr[2] > math.MaxUint32 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds uint32", hdr[2])
	}
	flags, n, m := hdr[1], uint32(hdr[2]), hdr[3]
	if flags&^flagWeighted != 0 {
		return nil, fmt.Errorf("graph: unknown flags %#x", flags)
	}
	// Payload size in bytes; every term is bounded (n < 2^32 so the
	// offsets term is < 2^36, and m < 2^59 caps the edge+weight terms at
	// 2^62) so the sum cannot overflow int64.
	if m > math.MaxInt64/16 {
		return nil, fmt.Errorf("graph: implausible edge count %d", m)
	}
	need := 8*(int64(n)+1) + 4*int64(m)
	if flags&flagWeighted != 0 {
		need += 4 * int64(m)
	}
	if sized && need > remaining-32 {
		return nil, fmt.Errorf("graph: header claims n=%d m=%d (%d payload bytes) but only %d bytes follow",
			n, m, need, remaining-32)
	}
	g := &Graph{n: n, m: m}
	g.offsets = make([]uint64, n+1)
	if err := readUint64s(br, g.offsets); err != nil {
		return nil, err
	}
	g.edges = make([]uint32, m)
	if err := readUint32s(br, g.edges); err != nil {
		return nil, err
	}
	if flags&flagWeighted != 0 {
		g.weights = make([]int32, m)
		if err := readInt32s(br, g.weights); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// remainingSize reports how many bytes remain in r when that is
// discoverable without consuming input: seekable readers (files) and
// in-memory readers exposing Len. Unknown sizes return sized=false and
// skip the pre-allocation check (truncation still surfaces as an
// io.ErrUnexpectedEOF from the array reads).
func remainingSize(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case io.Seeker:
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		end, err := v.Seek(0, io.SeekEnd)
		if err != nil {
			return 0, false
		}
		if _, err := v.Seek(cur, io.SeekStart); err != nil {
			return 0, false
		}
		return end - cur, true
	case interface{ Len() int }:
		return int64(v.Len()), true
	}
	return 0, false
}

const ioChunk = 1 << 16

func writeUint64s(w io.Writer, a []uint64) error {
	buf := make([]byte, 8*ioChunk)
	for len(a) > 0 {
		k := min(len(a), ioChunk)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], a[i])
		}
		if _, err := w.Write(buf[:8*k]); err != nil {
			return err
		}
		a = a[k:]
	}
	return nil
}

func writeUint32s(w io.Writer, a []uint32) error {
	buf := make([]byte, 4*ioChunk)
	for len(a) > 0 {
		k := min(len(a), ioChunk)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], a[i])
		}
		if _, err := w.Write(buf[:4*k]); err != nil {
			return err
		}
		a = a[k:]
	}
	return nil
}

func writeInt32s(w io.Writer, a []int32) error {
	buf := make([]byte, 4*ioChunk)
	for len(a) > 0 {
		k := min(len(a), ioChunk)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(a[i]))
		}
		if _, err := w.Write(buf[:4*k]); err != nil {
			return err
		}
		a = a[k:]
	}
	return nil
}

func readUint64s(r io.Reader, a []uint64) error {
	buf := make([]byte, 8*ioChunk)
	for len(a) > 0 {
		k := min(len(a), ioChunk)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			a[i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		a = a[k:]
	}
	return nil
}

func readUint32s(r io.Reader, a []uint32) error {
	buf := make([]byte, 4*ioChunk)
	for len(a) > 0 {
		k := min(len(a), ioChunk)
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			a[i] = binary.LittleEndian.Uint32(buf[4*i:])
		}
		a = a[k:]
	}
	return nil
}

func readInt32s(r io.Reader, a []int32) error {
	buf := make([]byte, 4*ioChunk)
	for len(a) > 0 {
		k := min(len(a), ioChunk)
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			a[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		a = a[k:]
	}
	return nil
}
