package main

// Tracing. Spans are recorded only by this benchmark's own code, at seams
// the system already exposes: a handler around the router and around each
// replica's server.Server, a RoundTripper in the router's HTTP client (the
// router passes the incoming request's context to each proxied request, so
// the hop span finds its parent's request ID there and forwards it in a
// header), a wal.FS wrapper timing File.Sync, and the client's own span
// around each request. Spans stay in memory and are reduced to per-layer
// self times when the run ends.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sage/internal/server"
	"sage/internal/wal"
)

// reqIDHeader carries a request's trace ID from the client through the
// router to the replica.
const reqIDHeader = "X-Request-Id"

type spanKind uint8

const (
	spanClient spanKind = iota
	spanRouter
	spanHop
	spanReplica
)

// span is one timed interval of one request at one layer.
type span struct {
	req        uint64
	kind       spanKind
	start, end time.Time
	cacheHit   bool    // the response carried X-Sage-Cache: hit
	secondary  bool    // an update fan-out to a secondary owner
	elapsedMS  float64 // replica: the body's elapsed_ms (-1 when absent)
	deltaWords float64 // replica update: the body's delta_words (-1 when absent)
	bodyBytes  int     // response body size
	// Client spans only: what the request was.
	algo   string
	value  bool
	update bool
}

func (s span) dur() float64 { return ms(s.end.Sub(s.start)) }

// tracer collects spans while on. Every seam checks on first, so a
// disabled tracer costs one atomic load per call.
type tracer struct {
	on       atomic.Bool
	nextID   atomic.Uint64
	mu       sync.Mutex
	spans    []span
	fsync    samples
	walBytes atomic.Int64
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newID returns a fresh request ID (0 when tracing is off).
func (t *tracer) newID() uint64 {
	if !t.enabled() {
		return 0
	}
	return t.nextID.Add(1)
}

type reqIDKey struct{}

func requestID(r *http.Request) uint64 {
	id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
	return id
}

// tailWriter records the response's cache header, size, and the first
// and last bytes of its body (where the fields the trace reads live).
type tailWriter struct {
	http.ResponseWriter
	n    int
	head []byte
	tail []byte
}

func (w *tailWriter) Write(p []byte) (int, error) {
	if room := 512 - len(w.head); room > 0 {
		w.head = append(w.head, p[:min(room, len(p))]...)
	}
	w.tail = append(w.tail, p...)
	if len(w.tail) > 64 {
		w.tail = append(w.tail[:0], w.tail[len(w.tail)-64:]...)
	}
	w.n += len(p)
	return w.ResponseWriter.Write(p)
}

// jsonNumber finds "key":<number> in b (-1 when absent).
func jsonNumber(b []byte, key string) float64 {
	k := []byte(`"` + key + `":`)
	i := bytes.LastIndex(b, k)
	if i < 0 {
		return -1
	}
	rest := b[i+len(k):]
	j := 0
	for j < len(rest) && (rest[j] == '.' || rest[j] == '-' || rest[j] == 'e' || rest[j] == '+' || (rest[j] >= '0' && rest[j] <= '9')) {
		j++
	}
	v, err := strconv.ParseFloat(string(rest[:j]), 64)
	if err != nil {
		return -1
	}
	return v
}

// wrapRouter records the router span and hands the request ID to the
// proxy hops through the request context.
func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		if id == 0 || !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		t.add(span{req: id, kind: spanRouter, start: start, end: time.Now(),
			cacheHit: w.Header().Get("X-Sage-Cache") == "hit", elapsedMS: -1, deltaWords: -1})
	})
}

// wrapReplica records the replica span with what the response reports.
func (t *tracer) wrapReplica(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		if id == 0 || !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		tw := &tailWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(tw, r)
		end := time.Now()
		s := span{req: id, kind: spanReplica, start: start, end: end,
			cacheHit:   w.Header().Get("X-Sage-Cache") == "hit",
			secondary:  r.Header.Get(server.SyncGenerationHeader) != "",
			elapsedMS:  jsonNumber(tw.tail, "elapsed_ms"),
			deltaWords: jsonNumber(tw.head, "delta_words"),
			bodyBytes:  tw.n}
		if s.cacheHit {
			s.elapsedMS = -1 // a cached body repeats the original run's time
		}
		t.add(s)
	})
}

// hopTransport records one span per proxied request: from the router's
// send until its read of the response body ends.
type hopTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(reqIDKey{}).(uint64)
	if id == 0 || !h.t.enabled() {
		return h.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	s := span{req: id, kind: spanHop, start: time.Now(), elapsedMS: -1, deltaWords: -1,
		secondary: req.Header.Get(server.SyncGenerationHeader) != ""}
	resp, err := h.base.RoundTrip(req)
	if err != nil {
		s.end = time.Now()
		h.t.add(s)
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, done: func() {
		s.end = time.Now()
		h.t.add(s)
	}}
	return resp, nil
}

// hopBody ends its hop span at the body's EOF or Close, whichever is
// first.
type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *hopBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// traceFS wraps the WAL's filesystem to time every fsync and count the
// bytes written.
type traceFS struct {
	wal.FS
	t *tracer
}

func (f traceFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return traceFile{File: file, t: f.t}, nil
}

type traceFile struct {
	wal.File
	t *tracer
}

func (f traceFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.t.walBytes.Add(int64(n))
	return n, err
}

func (f traceFile) Sync() error {
	if !f.t.enabled() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.t.fsync.addDur(time.Since(start))
	return err
}

// reduceSpans turns the traced window's spans into per-layer self times.
// A layer's self time is its span minus its child spans: client − router
// = network and client; router − hops = router; hop − replica span =
// proxy hop; replica span − elapsed_ms = server; elapsed_ms = algorithm.
// These telescope to the client span; a request whose spans do not nest
// (a negative self time, or a hop without its replica span) counts as
// unbalanced.
func reduceSpans(t *tracer, r report) {
	t.mu.Lock()
	byReq := map[uint64][]span{}
	for _, s := range t.spans {
		byReq[s.req] = append(byReq[s.req], s)
	}
	t.mu.Unlock()

	var netClient, routerSelf, hopSelf, missValue, missSlim, serverSelf, run, serverHit, clusterHit samples
	var updSelf, primary, secondary, apply samples
	var bodyValue, bodySlim, deltaWords []float64
	perAlgo := map[string]*samples{}
	requests, unbalanced := 0, 0
	for _, ss := range byReq {
		var c, rt *span
		var hops, reps []span
		for i := range ss {
			switch ss[i].kind {
			case spanClient:
				c = &ss[i]
			case spanRouter:
				rt = &ss[i]
			case spanHop:
				hops = append(hops, ss[i])
			case spanReplica:
				reps = append(reps, ss[i])
			}
		}
		if c == nil {
			continue
		}
		requests++
		if rt == nil || len(hops) != len(reps) {
			unbalanced++
			continue
		}
		sortByStart(hops)
		sortByStart(reps)
		selfs := []float64{c.dur() - rt.dur()}
		routerOwn := rt.dur()
		hopOwn := 0.0
		for i, h := range hops {
			routerOwn -= h.dur()
			hopOwn += h.dur() - reps[i].dur()
			selfs = append(selfs, h.dur()-reps[i].dur())
			if e := reps[i].elapsedMS; e >= 0 {
				selfs = append(selfs, reps[i].dur()-e, e)
			}
		}
		selfs = append(selfs, routerOwn)
		if slices.Min(selfs) < 0 {
			unbalanced++
			continue
		}
		if c.update {
			updSelf.add(routerOwn)
			for _, rep := range reps {
				if rep.secondary {
					secondary.add(rep.dur())
				} else {
					primary.add(rep.dur())
					if rep.deltaWords >= 0 {
						deltaWords = append(deltaWords, rep.deltaWords)
					}
				}
				if rep.elapsedMS >= 0 {
					apply.add(rep.elapsedMS)
				}
			}
			continue
		}
		netClient.add(c.dur() - rt.dur())
		if c.value {
			bodyValue = append(bodyValue, float64(c.bodyBytes)/1000)
		} else {
			bodySlim = append(bodySlim, float64(c.bodyBytes)/1000)
		}
		if len(hops) == 0 { // answered from the router's cache
			clusterHit.add(rt.dur())
			continue
		}
		routerSelf.add(routerOwn)
		hopSelf.add(hopOwn)
		last := reps[len(reps)-1]
		if last.elapsedMS < 0 { // answered from the replica's cache
			serverHit.add(last.dur())
			continue
		}
		self := last.dur() - last.elapsedMS
		serverSelf.add(self)
		if c.value {
			missValue.add(self)
		} else {
			missSlim.add(self)
		}
		run.add(last.elapsedMS)
		if perAlgo[c.algo] == nil {
			perAlgo[c.algo] = &samples{}
		}
		perAlgo[c.algo].add(last.elapsedMS)
	}
	r.setPct("net.client_ms", &netClient)
	r.setPct("cluster.router_self_ms", &routerSelf)
	r.setPct("net.proxy_hop_ms", &hopSelf)
	r.setPct("server.miss_value.self_ms", &missValue)
	r.setPct("server.miss_slim.self_ms", &missSlim)
	r.setPct("server.self_ms", &serverSelf)
	r.setPct("algos.run_ms", &run)
	r.setPct("server.hit_ms", &serverHit)
	r.setPct("cluster.hit_ms", &clusterHit)
	for a, s := range perAlgo {
		v := s.sorted()
		r.set("algos."+a+".ms_p50", quantile(v, 0.5), len(v))
	}
	r.set("server.body_kb.value", mean(bodyValue), len(bodyValue))
	r.set("server.body_kb.slim", mean(bodySlim), len(bodySlim))
	r.setPct("cluster.update_self_ms", &updSelf)
	r.setPct("server.update_ms.primary", &primary)
	r.setPct("server.update_ms.secondary", &secondary)
	r.setPct("updates.apply_ms", &apply)
	r.setPct("wal.fsync_ms", &t.fsync)
	r.set("delta.words_mean", mean(deltaWords), len(deltaWords))
	r.set("trace.requests", float64(requests), requests)
	r.set("trace.unbalanced_requests", float64(unbalanced), requests)
}

func sortByStart(s []span) {
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
}
