package main

// The serving workloads drive the cluster only through the router, over
// loopback TCP, from at most two client goroutines and connections.
//
// serve-read: two closed-loop clients send run requests: 60% bfs with the
// value, 20% bfs without it, 20% bellmanford (on the weighted copy)
// without it. A quarter of the sources come from a hot set of 64 vertices,
// the rest uniformly from the largest connected component.
//
// serve-mixed: one open-loop writer sends one-op batches at writeRate,
// toggling edges from a fixed pool (alternating the two datasets, so the
// overlays stay bounded and every cache entry is soon stale); beside it,
// one closed-loop reader sends the serve-read mix.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"sage"
	"sage/internal/server"
)

const (
	hotSet    = 64
	mixBlock  = 20              // reads per dealt block of the mix
	mixHot    = 5               // of them from the hot set
	writeRate = 200.0           // update batches per second in serve-mixed
	edgePool  = 64              // toggled edges per dataset in serve-mixed
	warmup    = 3 * time.Second // lets the result caches reach their steady state
)

// readReq is one read of the serve-read mix.
type readReq struct {
	ds, algo string
	src      uint32
	value    bool
}

func (q readReq) path() string {
	p := "/v1/run/" + q.ds + "/" + q.algo
	if !q.value {
		p += "?value=false"
	}
	return p
}

// readMix draws reads from the serve-read mix. It deals them in shuffled
// blocks of 20 that hold the mix's exact proportions (12 bfs with the
// value, 4 without, 4 bellmanford; 5 hot sources, 15 uniform), so every
// window sees the same mix instead of a binomial draw of it.
//
// A quarter of the sources are hot, so ~15% of reads hit a cache and the
// median read is a bfs miss. With half of them hot, hits come to just
// under half, and the median sits on the cliff between hits and misses,
// where it jumps from run to run.
type readMix struct {
	rng     *rand.Rand
	hot     []uint32
	uniform []uint32 // the largest component's vertices
	block   []readReq
}

func newReadMix(giant []uint32, seed uint64, stream int64) *readMix {
	return &readMix{
		rng:     rand.New(rand.NewSource(int64(seed)*1000003 + stream)),
		hot:     pickSources(giant, seed, hotSet),
		uniform: giant,
	}
}

func (m *readMix) next() readReq {
	if len(m.block) == 0 {
		kinds := make([]readReq, 0, mixBlock)
		for i := 0; i < mixBlock; i++ {
			switch {
			case i < 12:
				kinds = append(kinds, readReq{dsGraph, "bfs", 0, true})
			case i < 16:
				kinds = append(kinds, readReq{dsGraph, "bfs", 0, false})
			default:
				kinds = append(kinds, readReq{dsWeighted, "bellmanford", 0, false})
			}
		}
		hot := m.rng.Perm(mixBlock)
		m.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for i := range kinds {
			if hot[i] < mixHot {
				kinds[i].src = m.hot[m.rng.Intn(len(m.hot))]
			} else {
				kinds[i].src = m.uniform[m.rng.Intn(len(m.uniform))]
			}
		}
		m.block = kinds
	}
	q := m.block[0]
	m.block = m.block[1:]
	return q
}

func nonIsolated(g *sage.Graph) []uint32 {
	var out []uint32
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// largestComponent returns the vertices of g's largest connected
// component, in vertex order. Sources come from it, so every bfs and
// bellmanford run sweeps the same component whatever the seed: a source
// in one of R-MAT's many small components finishes at once.
func largestComponent(ctx context.Context, g *sage.Graph) ([]uint32, error) {
	res, err := sage.NewEngine().RunAlgorithm(ctx, "cc", g, sage.AlgoArgs{})
	if err != nil {
		return nil, fmt.Errorf("components: %w", err)
	}
	labels := res.Value.([]uint32)
	size := map[uint32]int{}
	for _, l := range labels {
		size[l]++
	}
	best := labels[0]
	for _, l := range labels {
		if size[l] > size[best] {
			best = l
		}
	}
	var out []uint32
	for v, l := range labels {
		if l == best {
			out = append(out, uint32(v))
		}
	}
	return out, nil
}

// pickSources draws k distinct vertices of cand from seed.
func pickSources(cand []uint32, seed uint64, k int) []uint32 {
	cand = slices.Clone(cand)
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	return cand[:k]
}

// client issues requests, one at a time, over its own connection.
type client struct {
	hc  *http.Client
	tr  *tracer
	buf bytes.Buffer
}

func newClient(tr *tracer) *client {
	return &client{tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is what a client keeps of one reply.
type response struct {
	status int
	gen    string
	body   []byte // valid until the client's next request
}

// post sends body to url, reading the whole reply; with tracing on it
// records the client span under a fresh request ID.
func (c *client) post(ctx context.Context, url string, body []byte, sp span) (response, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return response{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := c.tr.newID()
	if id != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, time.Since(t0), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return response{}, t1.Sub(t0), err
	}
	if id != 0 {
		sp.req, sp.kind, sp.start, sp.end = id, spanClient, t0, t1
		sp.bodyBytes = c.buf.Len()
		c.tr.add(sp)
	}
	return response{status: resp.StatusCode, gen: resp.Header.Get(server.GenerationHeader), body: c.buf.Bytes()}, t1.Sub(t0), nil
}

// jsonString finds "key":"<string>" in b.
func jsonString(b []byte, key string) (string, bool) {
	k := []byte(`"` + key + `":"`)
	i := bytes.Index(b, k)
	if i < 0 {
		return "", false
	}
	rest := b[i+len(k):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return string(rest[:j]), true
}

// observed is one read's outcome, kept for the correctness check.
type observed struct {
	q       readReq
	status  int
	summary string
}

// loadStats is one timed window of serving load.
type loadStats struct {
	mu       sync.Mutex
	read     opLog   // client-observed latency of each ok read
	update   samples // update latency from its due time, ms
	lag      samples // how late each update was sent, ms
	seen     map[readReq]bool
	repeats  int
	observed []observed
	start    time.Time
}

func newLoadStats(start time.Time) *loadStats {
	return &loadStats{seen: map[readReq]bool{}, start: start}
}

// reader runs one closed-loop reader until the deadline.
func reader(ctx context.Context, e *env, c *client, mix *readMix, deadline time.Time, ls *loadStats, res *outcome) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		q := mix.next()
		body := []byte(fmt.Sprintf(`{"src":%d}`, q.src))
		t0 := time.Now()
		resp, d, err := c.post(ctx, e.routerURL+q.path(), body, span{algo: q.algo, value: q.value, elapsedMS: -1, deltaWords: -1})
		ok := err == nil && resp.status == http.StatusOK
		res.attempt(1, nil)
		if !ok {
			res.fail("read %s src %d: status %d err %v", q.path(), q.src, resp.status, err)
		}
		summary, _ := jsonString(resp.body, "summary")
		ls.mu.Lock()
		ls.observed = append(ls.observed, observed{q, resp.status, summary})
		if !t0.Before(ls.start) {
			if ok {
				ls.read.add(t0.Add(d), d)
			}
			if ls.seen[q] {
				ls.repeats++
			}
			ls.seen[q] = true
		}
		ls.mu.Unlock()
	}
}

// writer runs the open-loop writer until the deadline: batch i is due at
// start + i/writeRate, and its latency counts from that due time.
type writer struct {
	pool    map[string][]sage.EdgeOp // per dataset: the toggled edges
	present map[string][]bool
	next    int
	// acked lists, per dataset, every acknowledged op in order.
	acked map[string][]sage.EdgeOp
}

func newWriter(g *sage.Graph, seed uint64) *writer {
	w := &writer{pool: map[string][]sage.EdgeOp{}, present: map[string][]bool{}, acked: map[string][]sage.EdgeOp{}}
	verts := nonIsolated(g)
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	for _, ds := range []string{dsGraph, dsWeighted} {
		for len(w.pool[ds]) < edgePool {
			u, v := verts[rng.Intn(len(verts))], verts[rng.Intn(len(verts))]
			if u == v {
				continue
			}
			op := sage.EdgeOp{U: u, V: v}
			if ds == dsWeighted {
				op.W = int32(1 + rng.Intn(7))
			}
			w.pool[ds] = append(w.pool[ds], op)
		}
		w.present[ds] = make([]bool, edgePool)
	}
	return w
}

// batch returns the next one-op batch and its dataset, alternating the
// datasets and toggling each pool edge in turn.
func (w *writer) batch() (string, sage.EdgeOp, func()) {
	ds := dsGraph
	if w.next%2 == 1 {
		ds = dsWeighted
	}
	j := (w.next / 2) % edgePool
	w.next++
	op := w.pool[ds][j]
	op.Del = w.present[ds][j]
	return ds, op, func() {
		w.present[ds][j] = !w.present[ds][j]
		w.acked[ds] = append(w.acked[ds], op)
	}
}

func (w *writer) run(ctx context.Context, e *env, c *client, start, deadline time.Time, ls *loadStats, res *outcome) {
	interval := time.Duration(float64(time.Second) / writeRate)
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		ds, op, ack := w.batch()
		body, _ := json.Marshal(map[string]any{"ops": []sage.EdgeOp{op}})
		resp, _, err := c.post(ctx, e.routerURL+"/v1/update/"+ds, body, span{update: true, elapsedMS: -1, deltaWords: -1})
		done := time.Now()
		res.attempt(1, nil)
		if err != nil || resp.status != http.StatusOK {
			res.fail("update %s %+v: status %d err %v", ds, op, resp.status, err)
		} else {
			ack()
		}
		if !due.Before(ls.start) {
			ls.update.addDur(done.Sub(due))
			ls.lag.addDur(sent.Sub(due))
		}
	}
}

// serveWindow runs one timed window (after warm-up, for the first) of the
// workload's load and returns its figures.
func serveWindow(ctx context.Context, e *env, workload string, mixes []*readMix, w *writer, seconds float64, warm time.Duration, res *outcome) *loadStats {
	begin := time.Now()
	start := begin.Add(warm)
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	ls := newLoadStats(start)
	var wg sync.WaitGroup
	spawn := func(load func(c *client)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(res.tr)
			defer c.close()
			load(c)
		}()
	}
	for _, m := range mixes {
		spawn(func(c *client) { reader(ctx, e, c, m, deadline, ls, res) })
	}
	if workload == "serve-mixed" {
		spawn(func(c *client) { w.run(ctx, e, c, begin, deadline, ls, res) })
	}
	wg.Wait()
	return ls
}

// serve runs a serving workload: one untraced window, a traced one when
// asked, then the correctness checks and the /metrics scrape.
func serve(ctx context.Context, e *env, workload string, seed uint64, seconds float64, trace bool, res *outcome) error {
	nReaders := 2
	if workload == "serve-mixed" {
		nReaders = 1
	}
	giant, err := largestComponent(ctx, e.csr)
	if err != nil {
		return err
	}
	mixes := make([]*readMix, nReaders)
	for i := range mixes {
		mixes[i] = newReadMix(giant, seed, int64(i))
	}
	w := newWriter(e.csr, seed)
	var all []observed
	window := func(warm time.Duration) *loadStats {
		ls := serveWindow(ctx, e, workload, mixes, w, seconds, warm, res)
		all = append(all, ls.observed...)
		return ls
	}
	untraced := window(warmup)
	res.e2e(&untraced.read, untraced.start)
	if trace {
		res.tr.on.Store(true)
		traced := window(0)
		res.tr.on.Store(false)
		res.traced(&traced.read, traced.start)
		res.layer.setPct("update_ms", &traced.update)
		lag := traced.lag.sorted()
		res.layer.set("net.update_lag_ms_p90", quantile(lag, 0.9), len(lag))
		n := len(traced.seen) + traced.repeats
		res.layer.set("serve.repeat_share", ratio(float64(traced.repeats), float64(n)), n)
		reduceSpans(res.tr, res.layer)
		if err := scrapeMetrics(ctx, e, res.tr, res.layer); err != nil {
			return err
		}
	}
	if workload == "serve-read" {
		return checkReads(ctx, e, all, res)
	}
	if trace {
		if err := overlayCost(ctx, e, w, mixes[0].hot[:8], res.layer); err != nil {
			return err
		}
	}
	return checkConverged(ctx, e, w, mixes[0].hot[:4], res)
}

// overlayCost times bfs through the engine directly, after the writer has
// stopped and with nothing else running, on the base graph and on a
// Snapshot carrying serve-mixed's final overlay. Set against the reads'
// algos.run_ms, the pair tells overlay traversal from CPU contention.
func overlayCost(ctx context.Context, e *env, w *writer, srcs []uint32, r report) error {
	snap, err := e.csr.Snapshot().ApplyBatch(w.acked[dsGraph])
	if err != nil {
		return fmt.Errorf("overlay snapshot: %w", err)
	}
	eng := sage.NewEngine()
	for _, c := range []struct {
		name string
		g    *sage.Graph
	}{{"delta.base_bfs_ms", e.csr}, {"delta.overlay_bfs_ms", snap.Graph()}} {
		var s samples
		for rep := 0; rep < 3; rep++ {
			for _, src := range srcs {
				t0 := time.Now()
				if _, err := eng.RunAlgorithm(ctx, "bfs", c.g, sage.AlgoArgs{Src: src}); err != nil {
					return fmt.Errorf("%s: %w", c.name, err)
				}
				s.addDur(time.Since(t0))
			}
		}
		v := s.sorted()
		r.set(c.name+"_p50", quantile(v, 0.5), len(v))
	}
	return nil
}

// checkReads compares every 200 read's summary with a direct
// Engine.RunAlgorithm on the same graph. A BFS or Bellman-Ford summary is
// a function of the source's connected component (vertices reached,
// distances computed), so the direct run is made once per (algorithm,
// component), from the first source seen in it; components come from a
// direct cc run.
func checkReads(ctx context.Context, e *env, obs []observed, res *outcome) error {
	eng := sage.NewEngine()
	cc, err := eng.RunAlgorithm(ctx, "cc", e.csr, sage.AlgoArgs{})
	if err != nil {
		return fmt.Errorf("check: cc: %w", err)
	}
	labels := cc.Value.([]uint32)
	type key struct {
		algo string
		comp uint32
	}
	want := map[key]string{}
	for _, o := range obs {
		if o.status != http.StatusOK {
			continue // already counted as failed
		}
		k := key{o.q.algo, labels[o.q.src]}
		exp, ok := want[k]
		if !ok {
			g := e.csr
			if o.q.ds == dsWeighted {
				g = e.csrW
			}
			r, err := eng.RunAlgorithm(ctx, o.q.algo, g, sage.AlgoArgs{Src: o.q.src})
			if err != nil {
				return fmt.Errorf("check: direct %s: %w", o.q.algo, err)
			}
			exp = r.Summary
			if res.corruptExpected {
				exp = "corrupted " + exp
			}
			want[k] = exp
		}
		if o.summary != exp {
			res.fail("read %s src %d: summary %q, direct run %q", o.q.path(), o.q.src, o.summary, exp)
		}
	}
	return nil
}

// checkConverged quiesces serve-mixed (the writer has stopped) and checks
// that both replicas report the same generation per dataset and that
// their cc and bfs summaries equal a direct run on a Snapshot built from
// the base plus every acknowledged batch, in order.
func checkConverged(ctx context.Context, e *env, w *writer, srcs []uint32, res *outcome) error {
	eng := sage.NewEngine()
	c := newClient(nil)
	defer c.close()
	for _, ds := range []string{dsGraph, dsWeighted} {
		base := e.csr
		if ds == dsWeighted {
			base = e.csrW
		}
		snap, err := base.Snapshot().ApplyBatch(w.acked[ds])
		if err != nil {
			return fmt.Errorf("check: snapshot of %s: %w", ds, err)
		}
		queries := []readReq{{ds, "cc", 0, false}}
		for _, s := range srcs {
			queries = append(queries, readReq{ds, "bfs", s, false})
		}
		for _, q := range queries {
			direct, err := eng.RunAlgorithm(ctx, q.algo, snap.Graph(), sage.AlgoArgs{Src: q.src})
			if err != nil {
				return fmt.Errorf("check: direct %s: %w", q.algo, err)
			}
			exp := direct.Summary
			if res.corruptExpected {
				exp = "corrupted " + exp
			}
			var gens []string
			for _, r := range e.replicas {
				resp, _, err := c.post(ctx, r.url()+q.path(), []byte(fmt.Sprintf(`{"src":%d}`, q.src)), span{})
				res.attempt(1, nil)
				if err != nil || resp.status != http.StatusOK {
					res.fail("replica %s %s: status %d err %v", r.name, q.path(), resp.status, err)
					continue
				}
				summary, _ := jsonString(resp.body, "summary")
				res.check(summary == exp, "replica %s %s src %d: summary %q, snapshot run %q", r.name, q.path(), q.src, summary, exp)
				gens = append(gens, resp.gen)
			}
			res.check(len(gens) == len(e.replicas) && allEqual(gens),
				"%s: replicas report generations %v", ds, gens)
		}
	}
	return nil
}

func allEqual(v []string) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}

// scrapeMetrics reads each node's /metrics at the end of the run.
func scrapeMetrics(ctx context.Context, e *env, tr *tracer, r report) error {
	get := func(url string, v any) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return fmt.Errorf("scrape %s: %w", url, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("scrape %s: %w", url, err)
		}
		return json.Unmarshal(b, v)
	}
	var hits, misses, rejected, syncs, batches, appends float64
	for _, rep := range e.replicas {
		var m struct {
			Admission struct {
				Concurrency int64 `json:"rejected_concurrency"`
				DRAM        int64 `json:"rejected_dram"`
				Cost        int64 `json:"rejected_cost"`
			} `json:"admission"`
			ResultCache struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"result_cache"`
			WAL struct {
				Appends      int64 `json:"appends"`
				GroupSyncs   int64 `json:"group_syncs"`
				GroupBatches int64 `json:"group_batches"`
			} `json:"wal"`
		}
		if err := get(rep.url(), &m); err != nil {
			return err
		}
		hits += float64(m.ResultCache.Hits)
		misses += float64(m.ResultCache.Misses)
		rejected += float64(m.Admission.Concurrency + m.Admission.DRAM + m.Admission.Cost)
		syncs += float64(m.WAL.GroupSyncs)
		batches += float64(m.WAL.GroupBatches)
		appends += float64(m.WAL.Appends)
	}
	var rm struct {
		ReadFailovers int64            `json:"read_failovers"`
		RouterCache   map[string]int64 `json:"router_cache"`
	}
	if err := get(e.routerURL, &rm); err != nil {
		return err
	}
	r.set("server.result_cache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	rh, rmiss := float64(rm.RouterCache["hits"]), float64(rm.RouterCache["misses"])
	r.set("cluster.router_cache.hit_ratio", ratio(rh, rh+rmiss), int(rh+rmiss))
	r.set("server.admission.rejected", rejected, 1)
	r.set("cluster.read_failovers", float64(rm.ReadFailovers), 1)
	r.set("wal.batches_per_fsync", ratio(batches, syncs), int(syncs))
	r.set("wal.bytes_per_batch", ratio(float64(tr.walBytes.Load()), appends), int(appends))
	return nil
}
