package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sage/internal/server"
)

// TestProxiedBodiesCarryContentLength checks that the router forwards
// run and update bodies with their length declared — a replica sees a
// sized request, not a chunked stream — so the body is bounded up front
// and the request stays replayable.
func TestProxiedBodiesCarryContentLength(t *testing.T) {
	type seen struct {
		path     string
		length   int64
		encoding []string
		body     string
	}
	var mu sync.Mutex
	var got []seen
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = append(got, seen{r.URL.Path, r.ContentLength, r.TransferEncoding, string(b)})
		mu.Unlock()
		w.Header().Set(server.GenerationHeader, "1")
		w.Write([]byte("{}"))
	}))
	defer replica.Close()

	rt, err := NewRouter(RouterConfig{
		Peers:         []Peer{{Name: "r0", URL: replica.URL}},
		Replication:   1,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	bodies := map[string]string{
		"/v1/run/web/bfs": `{"src": 3}`,
		"/v1/update/web":  `{"ops": [{"u": 1, "v": 2}]}`,
	}
	for path, body := range bodies {
		resp, err := http.Post(front.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	if len(got) != len(bodies) {
		t.Fatalf("replica saw %d requests, want %d", len(got), len(bodies))
	}
	for _, s := range got {
		want := bodies[s.path]
		if s.body != want {
			t.Errorf("%s: replica got body %q, want %q", s.path, s.body, want)
		}
		if s.length != int64(len(want)) || len(s.encoding) != 0 {
			t.Errorf("%s: ContentLength=%d TransferEncoding=%v, want %d and none",
				s.path, s.length, s.encoding, len(want))
		}
	}
}

// TestRouterCloseWithoutStart checks that Start is optional: closing a
// router that never launched its prober returns instead of waiting for
// one, with probing enabled or disabled, and a second Close is harmless.
func TestRouterCloseWithoutStart(t *testing.T) {
	for _, every := range []time.Duration{time.Hour, -1} {
		rt, err := NewRouter(RouterConfig{
			Peers:         []Peer{{Name: "r0", URL: "http://127.0.0.1:1"}},
			Replication:   1,
			ProbeInterval: every,
		})
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			rt.Close()
			rt.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("Close without Start (probe interval %v) did not return", every)
		}
	}
}
