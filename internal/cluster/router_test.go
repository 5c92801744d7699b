package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// TestRouterBuffersOnlyCacheableBodies checks that the router caches a
// relayed run body only when its length is declared and the cache would
// keep it; anything else streams through and every repeat reaches the
// replica again.
func TestRouterBuffersOnlyCacheableBodies(t *testing.T) {
	small := strings.Repeat("s", 100)
	big := strings.Repeat("b", 2000) // over a quarter of the 4 KiB budget
	var mu sync.Mutex
	hits := map[string]int{}
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits[r.URL.Path]++
		mu.Unlock()
		w.Header().Set(server.GenerationHeader, "1")
		switch r.URL.Path {
		case "/v1/run/web/small":
			w.Header().Set("Content-Length", strconv.Itoa(len(small)))
			w.Write([]byte(small))
		case "/v1/run/web/big":
			w.Header().Set("Content-Length", strconv.Itoa(len(big)))
			w.Write([]byte(big))
		case "/v1/run/web/chunked": // flushed before the end: no length
			w.Write([]byte(small[:50]))
			w.(http.Flusher).Flush()
			w.Write([]byte(small[50:]))
		}
	}))
	defer replica.Close()
	rt, err := NewRouter(RouterConfig{
		Peers:         []Peer{{Name: "r0", URL: replica.URL}},
		Replication:   1,
		ProbeInterval: -1,
		CacheEntries:  16,
		CacheBytes:    4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	want := map[string]string{"small": small, "big": big, "chunked": small}
	for name, body := range want {
		for i := 0; i < 2; i++ {
			resp, err := http.Post(front.URL+"/v1/run/web/"+name, "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || string(got) != body {
				t.Fatalf("%s: body of %d bytes (err %v), want %d", name, len(got), err, len(body))
			}
		}
	}
	wantHits := map[string]int{"/v1/run/web/small": 1, "/v1/run/web/big": 2, "/v1/run/web/chunked": 2}
	mu.Lock()
	defer mu.Unlock()
	for path, n := range wantHits {
		if hits[path] != n {
			t.Errorf("%s reached the replica %d times, want %d", path, hits[path], n)
		}
	}
}
