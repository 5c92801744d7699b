package compress

// LEB128 varints with zigzag encoding for the (possibly negative) first
// difference of each block. These mirror the byte codes of Ligra+ [87].

// varintLen returns the encoded length of x in bytes.
func varintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// putVarint writes x into out, returning the number of bytes written.
func putVarint(out []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		out[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	out[i] = byte(x)
	return i + 1
}

// getVarint decodes a varint from in, returning the value and the number
// of bytes consumed.
//
//sage:hotpath
func getVarint(in []byte) (uint64, int) {
	if b := in[0]; b < 0x80 {
		return uint64(b), 1 // the common one-byte gap
	}
	var x uint64
	var shift uint
	for i := 0; ; i++ {
		b := in[i]
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, i + 1
		}
		shift += 7
	}
}

// zigzag maps signed to unsigned so small magnitudes stay short.
func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

// unzigzag inverts zigzag.
//
//sage:hotpath
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// putU32 writes a little-endian uint32.
func putU32(out []byte, x uint32) {
	out[0] = byte(x)
	out[1] = byte(x >> 8)
	out[2] = byte(x >> 16)
	out[3] = byte(x >> 24)
}

// getU32 reads a little-endian uint32.
//
//sage:hotpath
func getU32(in []byte) uint32 {
	return uint32(in[0]) | uint32(in[1])<<8 | uint32(in[2])<<16 | uint32(in[3])<<24
}
