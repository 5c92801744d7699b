package server

// Typed run-response encoding. A run's value is a Θ(n) or Θ(m) slice —
// bfs parents, distances, ranks — and reflection-driven encoding/json
// spent more time on it than the handler spent on everything else. The
// envelope (dataset, args, summary, stats) is small and keeps
// encoding/json; the value is written by appendValue, whose output is
// byte-identical to encoding/json's for every slice shape the registry
// returns, and is spliced into the envelope.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"sage"
)

// statsKey opens the envelope's tail: runResponse's fields after Value.
// Everything from it to the end is numbers and fixed keys, so its last
// occurrence in the marshaled envelope is the field itself.
var statsKey = []byte(`,"stats":`)

// encodeBufs holds scratch buffers for full bodies. A body is copied out
// at its exact size before its buffer returns to the pool, because the
// result cache retains it.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeRun renders resp twice, as the full body and as the value-less
// rendering served for ?value=false; both equal json.Marshal's output.
// With needBody false only slim is built (body is nil). A value JSON
// cannot carry (NaN, ±Inf) is an error.
func encodeRun(resp runResponse, needBody bool) (body, slim []byte, err error) {
	value := resp.Value
	resp.Value = nil
	slim, err = json.Marshal(resp)
	if err != nil || !needBody {
		return nil, slim, err
	}
	if value == nil { // omitempty: no value field at all
		return slim, slim, nil
	}
	split := bytes.LastIndex(slim, statsKey)
	bp := encodeBufs.Get().(*[]byte)
	buf := append((*bp)[:0], slim[:split]...)
	buf = append(buf, `,"value":`...)
	buf, err = appendValue(buf, value)
	if err == nil {
		buf = append(buf, slim[split:]...)
		body = bytes.Clone(buf)
	}
	*bp = buf
	encodeBufs.Put(bp)
	if err != nil {
		return nil, nil, err
	}
	return body, slim, nil
}

// appendValue appends v's JSON encoding to dst. Slices of the registry's
// result element types are written directly (nil as null); any other
// value falls back to encoding/json. Each element is followed by a comma
// that closeArray turns into the closing bracket.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case []uint32:
		if v == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for _, x := range v {
			dst = append(appendUint(dst, uint64(x)), ',')
		}
		return closeArray(dst, len(v)), nil
	case []int64:
		if v == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for _, x := range v {
			dst = append(appendInt(dst, x), ',')
		}
		return closeArray(dst, len(v)), nil
	case []float64:
		if v == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for _, x := range v {
			var err error
			if dst, err = appendFloat(dst, x); err != nil {
				return dst, err
			}
			dst = append(dst, ',')
		}
		return closeArray(dst, len(v)), nil
	case []bool:
		if v == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for _, x := range v {
			dst = append(strconv.AppendBool(dst, x), ',')
		}
		return closeArray(dst, len(v)), nil
	case []sage.Edge:
		if v == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for _, e := range v {
			dst = appendUint(append(dst, `{"U":`...), uint64(e.U))
			dst = appendUint(append(dst, `,"V":`...), uint64(e.V))
			dst = append(dst, '}', ',')
		}
		return closeArray(dst, len(v)), nil
	default:
		b, err := json.Marshal(v)
		return append(dst, b...), err
	}
}

// closeArray ends an array of n elements, each written with a trailing
// comma.
func closeArray(dst []byte, n int) []byte {
	if n == 0 {
		return append(dst, ']')
	}
	dst[len(dst)-1] = ']'
	return dst
}

// appendUint appends u in decimal. Below 1e8 it formats all eight digit
// positions at once (digits8) and drops the leading zeros; larger values
// print their high part recursively, then the low eight digits in full.
// With no digit-count branch per value it runs about twice as fast as
// strconv.AppendUint on bfs parents, whose lengths vary unpredictably.
func appendUint(dst []byte, u uint64) []byte {
	if u >= 1e8 {
		q := u / 1e8
		return put8(appendUint(dst, q), digits8(uint32(u-q*1e8))+ascii8, 8)
	}
	v := digits8(uint32(u))
	lz := min(bits.TrailingZeros64(v)/8, 7) // leading zero digits; u == 0 keeps one
	return put8(dst, (v+ascii8)>>(8*lz), 8-lz)
}

// ascii8 adds '0' to each of eight packed digits.
const ascii8 = 0x3030303030303030

// digits8 returns the eight decimal digits of x < 1e8 packed one per
// byte, the most significant in the low byte (so a little-endian store
// writes them in reading order). It splits x into 4-digit halves in the
// two 32-bit lanes, each half into 2-digit quarters in 16-bit lanes, and
// each quarter into digits in bytes, dividing every lane at once by
// multiply-and-shift: (y*10486)>>20 is y/100 for y < 10000 and
// (y*103)>>10 is y/10 for y < 100, and no lane's product reaches the
// next lane.
func digits8(x uint32) uint64 {
	hi := x / 10000
	v := uint64(hi) | uint64(x-hi*10000)<<32
	q := (v * 10486 >> 20) & 0x0000007f0000007f
	v = q | (v-q*100)<<16
	q = (v * 103 >> 10) & 0x000f000f000f000f
	return q | (v-q*10)<<8
}

// put8 stores the eight bytes of v little-endian at the end of dst and
// keeps the first n of them.
func put8(dst []byte, v uint64, n int) []byte {
	l := len(dst)
	dst = slices.Grow(dst, 8)[:l+8]
	binary.LittleEndian.PutUint64(dst[l:], v)
	return dst[:l+n]
}

// appendInt appends x in decimal. Negating the uint64 is exact for
// math.MinInt64 too.
func appendInt(dst []byte, x int64) []byte {
	u := uint64(x)
	if x < 0 {
		dst = append(dst, '-')
		u = -u
	}
	return appendUint(dst, u)
}

// appendFloat appends f exactly as encoding/json writes a float64: the
// shortest representation, in 'f' form unless the magnitude is below
// 1e-6 or at least 1e21, with a two-digit negative exponent shortened
// (e-09 → e-9). NaN and ±Inf have no JSON form and are an error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
