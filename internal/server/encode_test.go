package server

// The typed run encoder against its oracle: every rendering must equal
// encoding/json's output for runResponse byte for byte, on every
// registry algorithm's real output and on the number edge cases where
// hand-written formatting usually drifts.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"sage"
)

// checkEncodeRun fails unless encodeRun's renderings of resp equal
// json.Marshal's.
func checkEncodeRun(t *testing.T, resp runResponse) {
	t.Helper()
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	slimResp := resp
	slimResp.Value = nil
	wantSlim, err := json.Marshal(slimResp)
	if err != nil {
		t.Fatalf("json.Marshal slim: %v", err)
	}
	body, slim, err := encodeRun(resp, true)
	if err != nil {
		t.Fatalf("encodeRun: %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("body differs from encoding/json:\n got %.300s\nwant %.300s", body, want)
	}
	if !bytes.Equal(slim, wantSlim) {
		t.Errorf("slim differs from encoding/json:\n got %s\nwant %s", slim, wantSlim)
	}
	body, slim, err = encodeRun(resp, false)
	if err != nil || body != nil || !bytes.Equal(slim, wantSlim) {
		t.Errorf("encodeRun without body: body %d bytes, slim equal %v, err %v",
			len(body), bytes.Equal(slim, wantSlim), err)
	}
}

func TestEncodeRunMatchesEncodingJSONOnEveryAlgorithm(t *testing.T) {
	g := sage.GenerateRMAT(8, 8, 3)
	wg, err := g.WithUniformWeights(5)
	if err != nil {
		t.Fatal(err)
	}
	e := sage.NewEngine()
	algos := sage.Algorithms()
	if len(algos) != 24 {
		t.Fatalf("registry has %d algorithms, want 24", len(algos))
	}
	for _, a := range algos {
		t.Run(a.Name, func(t *testing.T) {
			input, args := g, sage.AlgoArgs{Src: 7}
			if a.Weighted {
				input = wg
			}
			if a.SetCover {
				args.NumSets = 64
			}
			canon, err := sage.CanonicalArgs(a.Name, args)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.RunAlgorithm(context.Background(), a.Name, input, canon)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			checkEncodeRun(t, runResponse{
				Dataset: "web \"quoted\" <&>", Generation: 3, Algo: a.Name, Args: canon,
				Summary: res.Summary, Value: res.Value, Stats: statsJSON(res.Stats),
				ElapsedMS: 4.25,
			})
		})
	}
}

func TestEncodeRunEdgeCases(t *testing.T) {
	values := map[string]any{
		"floats": []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e20, 1e21, -1e21,
			5e-324, math.MaxFloat64, -math.MaxFloat64, -3.5e-9, 0.1, 1.5e-300, 123456789.125},
		"ints":        []int64{0, -1, 9, 10, 99, 100, math.MinInt64, math.MaxInt64, 4611686018427387904},
		"uints":       []uint32{0, 1, 9, 10, 99, 100, 999, 1000, math.MaxUint32},
		"bools":       []bool{true, false},
		"edges":       []sage.Edge{{U: 0, V: 1}, {U: math.MaxUint32, V: 100}},
		"empty":       []uint32{},
		"emptyfloats": []float64{},
		"emptyedges":  []sage.Edge{},
		"nilfloats":   []float64(nil),
		"niluints":    []uint32(nil),
		"nilints":     []int64(nil),
		"nilbools":    []bool(nil),
		"niledges":    []sage.Edge(nil),
		"scalar":      int64(-42),
		"struct":      &struct{ Rounds int }{Rounds: 3},
		"none":        nil,
	}
	for name, v := range values {
		t.Run(name, func(t *testing.T) {
			checkEncodeRun(t, runResponse{Dataset: "d", Algo: "a", Value: v, ElapsedMS: 1e-7})
		})
	}
}

// TestAppendUintDigitLanes checks appendUint against strconv on every
// value of each 4-digit lane of digits8 (below 1e5, and hi = lo = k for
// every k < 1e4), at every power of ten and its neighbours, and across
// the 1e8 and 1e16 splits.
func TestAppendUintDigitLanes(t *testing.T) {
	var got, want []byte
	check := func(u uint64) {
		got = appendUint(got[:0], u)
		want = strconv.AppendUint(want[:0], u, 10)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendUint(%d) = %s", u, got)
		}
	}
	for u := uint64(0); u < 100000; u++ {
		check(u)
	}
	for k := uint64(0); k < 10000; k++ {
		check(k * 10001)
	}
	for p := uint64(1); p <= 1e19; p *= 10 {
		check(p - 1)
		check(p)
		check(p + 1)
		if p == 1e19 {
			break
		}
	}
	check(math.MaxUint32)
	check(math.MaxUint64)
}

func FuzzAppendValue(f *testing.F) {
	f.Add(uint64(0), 0.0)
	f.Add(uint64(math.MaxUint64), -3.5e-9)
	f.Add(uint64(1)<<62, 1e21)
	f.Add(uint64(99), 5e-324)
	f.Fuzz(func(t *testing.T, u uint64, x float64) {
		vals := []any{
			[]uint32{uint32(u), uint32(u >> 32)},
			[]int64{int64(u), -int64(u >> 1)},
		}
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			vals = append(vals, []float64{x, -x, x / 3, math.Float64frombits(u)})
		}
		for _, v := range vals {
			want, werr := json.Marshal(v)
			got, err := appendValue(nil, v)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%v: error %v, encoding/json %v", v, err, werr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("%v: got %s, want %s", v, got, want)
			}
		}
	})
}

// BenchmarkRunEncode times rendering a run miss's body and slim forms on
// the serve path's common values — bfs parents ([]uint32) and
// Bellman-Ford distances ([]int64) on a 2^16-vertex R-MAT — with the
// typed encoder and with two reflection json.Marshal calls.
func BenchmarkRunEncode(b *testing.B) {
	g := sage.GenerateRMAT(16, 16, 1)
	wg, err := g.WithUniformWeights(1)
	if err != nil {
		b.Fatal(err)
	}
	e := sage.NewEngine()
	for _, c := range []struct {
		algo  string
		input *sage.Graph
	}{{"bfs", g}, {"bellmanford", wg}} {
		canon, err := sage.CanonicalArgs(c.algo, sage.AlgoArgs{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.RunAlgorithm(context.Background(), c.algo, c.input, canon)
		if err != nil {
			b.Fatal(err)
		}
		resp := runResponse{Dataset: "web", Generation: 1, Algo: c.algo, Args: canon,
			Summary: res.Summary, Value: res.Value, Stats: statsJSON(res.Stats), ElapsedMS: 4.5}
		b.Run(c.algo+"/typed", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := encodeRun(resp, true); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.algo+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := json.Marshal(resp); err != nil {
					b.Fatal(err)
				}
				slim := resp
				slim.Value = nil
				if _, err := json.Marshal(slim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
