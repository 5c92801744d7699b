package cluster_test

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"sage"
	"sage/internal/cluster/clustertest"
)

// TestRunResponsesCarryContentLength checks that run bodies go out with
// their length declared, not chunked: from a replica (miss and hit) and
// through the router (relayed miss and router-cache hit), with and
// without the value.
func TestRunResponsesCarryContentLength(t *testing.T) {
	c := clustertest.New(t, clustertest.Options{
		Replicas:           1,
		Replication:        1,
		NoWAL:              true,
		RouterCacheEntries: 64,
		Datasets:           map[string]*sage.Graph{"g": sage.GenerateRMAT(10, 8, 0x5)},
	})
	fetch := func(url string) []byte {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(`{"src": 3}`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", url, resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s (cache %s): ContentLength=%d TransferEncoding=%v, want %d and none",
				url, resp.Header.Get("X-Sage-Cache"), resp.ContentLength, resp.TransferEncoding, len(body))
		}
		return body
	}
	// Per rendering: a router miss (the first one a replica miss too), a
	// router-cache hit, and a replica-cache hit, all the same bytes.
	for _, query := range []string{"", "?value=false"} {
		path := "/v1/run/g/bfs" + query
		want := fetch(c.URL() + path)
		for _, base := range []string{c.URL(), c.Replicas[0].URL()} {
			if got := fetch(base + path); !bytes.Equal(got, want) {
				t.Fatalf("%s%s differs from the first response", base, path)
			}
		}
	}
}
