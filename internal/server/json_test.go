package server

// White-box coverage of the response-serialization contract. Every
// algorithm currently clamps its parameters into ranges whose results
// stay finite, so no endpoint can produce ±Inf today — but the guard
// must hold if one ever does: a value JSON cannot carry has to surface
// as an error status, never as a 200 with an empty body (and handleRun
// additionally refuses to cache such a response; see storeRun).

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWriteJSONNonFiniteIsServerError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"value": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "not serializable") {
		t.Fatalf("body %q does not explain the failure", rec.Body.String())
	}
}

func TestWriteJSONHappyPath(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusTeapot, map[string]any{"ok": true})
	if rec.Code != http.StatusTeapot {
		t.Fatalf("code %d, want 418", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("content type %q", got)
	}
	if strings.TrimSpace(rec.Body.String()) != `{"ok":true}` {
		t.Fatalf("body %q", rec.Body.String())
	}
}

func TestNonFiniteRunValueIsNotCached(t *testing.T) {
	s := New(Config{})
	for i, v := range []any{
		[]float64{1, math.Inf(1)},
		[]float64{math.Inf(-1)},
		[]float64{math.NaN()},
	} {
		key := fmt.Sprintf("d@1/pagerank?%d", i)
		if _, _, err := encodeRun(runResponse{Value: v}, true); err == nil {
			t.Errorf("encodeRun(%v) succeeded, want an error", v)
		}
		if _, _, err := s.storeRun(key, runResponse{Value: v}, true); err == nil {
			t.Errorf("storeRun(%v) succeeded, want an error", v)
		}
		if _, ok := s.results.Get(key, nil); ok {
			t.Errorf("non-finite response %v was cached", v)
		}
	}
	// The same path caches a finite value.
	if _, _, err := s.storeRun("d@1/pagerank?ok", runResponse{Value: []float64{0.5}}, true); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.results.Get("d@1/pagerank?ok", nil); !ok {
		t.Error("finite response was not cached")
	}
}
