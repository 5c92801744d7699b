package main

// Set-up: the dataset and the serving cluster every workload starts from.
// One R-MAT graph (2^16 vertices, average degree 16) is generated from
// the seed, with a uniform-weight copy and byte-coded (block 64) copies of
// both; the analytics copies are written as containers and opened
// memory-mapped, and each of two replicas gets its own copies of the CSR
// pair. The replicas run sage-serve's defaults behind a router on
// loopback TCP.

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sage"
	"sage/internal/cluster"
	"sage/internal/server"
	"sage/internal/wal"
)

const (
	logN       = 16
	avgDeg     = 16
	blockSize  = 64
	numReplica = 2
	// Dataset names on the replicas: the unweighted graph and its
	// uniform-weight copy.
	dsGraph    = "g"
	dsWeighted = "gw"
)

// env is one set-up: the opened analytics graphs and a running cluster.
type env struct {
	dir string
	// Analytics graphs, opened mmap'd from their containers: CSR and
	// byte64 forms of the unweighted graph and of its weighted copy.
	csr, csrW, b64, b64W *sage.Graph

	replicas  []*replica
	router    *cluster.Router
	routerURL string
	front     *httpServer

	// Set-up phase durations.
	genS, createS, openMS, recoverMS, startMS float64
}

type replica struct {
	name, dir string
	srv       *server.Server
	hs        *httpServer
	paths     map[string]string
}

func (r *replica) url() string { return r.hs.url }

// httpServer is an http.Server on a loopback listener whose Serve
// goroutine close waits for.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *httpServer) close() {
	_ = s.srv.Close()
	<-s.done
}

// serverConfig is sage-serve's default replica configuration: AppDirect
// engine, chunked strategy, optane cost model, GOMAXPROCS concurrent
// runs, a 256-entry result cache, and a write-ahead log fsynced on every
// batch.
func serverConfig(tr *tracer) server.Config {
	model, _ := sage.LookupCostModel("optane")
	cfg := server.Config{
		Engine:             sage.NewEngine(sage.WithMode(sage.AppDirect), sage.WithStrategy(sage.Chunked), sage.WithModel(model)),
		ResultCacheEntries: 256,
		Durability: server.Durability{
			Enabled:  true,
			Policy:   wal.SyncAlways,
			Interval: 100 * time.Millisecond,
		},
	}
	if tr != nil {
		cfg.Durability.FS = traceFS{FS: wal.OS, t: tr}
	}
	return cfg
}

// setUp generates the dataset from seed under dir and starts the cluster.
// With tr non-nil every seam is wrapped for tracing (off until tr.on is
// set).
func setUp(dir string, seed uint64, tr *tracer) (_ *env, err error) {
	e := &env{dir: dir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	t0 := time.Now()
	g := sage.GenerateRMAT(logN, avgDeg, seed)
	w, err := g.WithUniformWeights(seed)
	if err != nil {
		return nil, fmt.Errorf("weights: %w", err)
	}
	forms := map[string]*sage.Graph{
		"csr.sg": g, "csr-w.sg": w,
		"b64.sg": g.Compress(blockSize), "b64-w.sg": w.Compress(blockSize),
	}
	e.genS = time.Since(t0).Seconds()

	t0 = time.Now()
	adir := filepath.Join(dir, "analytics")
	if err := os.MkdirAll(adir, 0o755); err != nil {
		return nil, err
	}
	for name, x := range forms {
		if err := sage.Create(filepath.Join(adir, name), x); err != nil {
			return nil, fmt.Errorf("create %s: %w", name, err)
		}
	}
	for i := 0; i < numReplica; i++ {
		r := &replica{name: fmt.Sprintf("r%d", i), dir: filepath.Join(dir, fmt.Sprintf("r%d", i))}
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, err
		}
		r.paths = map[string]string{dsGraph: filepath.Join(r.dir, "g.sg"), dsWeighted: filepath.Join(r.dir, "gw.sg")}
		if err := sage.Create(r.paths[dsGraph], g); err != nil {
			return nil, fmt.Errorf("create replica graph: %w", err)
		}
		if err := sage.Create(r.paths[dsWeighted], w); err != nil {
			return nil, fmt.Errorf("create replica graph: %w", err)
		}
		e.replicas = append(e.replicas, r)
	}
	e.createS = time.Since(t0).Seconds()

	t0 = time.Now()
	open := func(name string) (*sage.Graph, error) { return sage.Open(filepath.Join(adir, name)) }
	for name, dst := range map[string]**sage.Graph{"csr.sg": &e.csr, "csr-w.sg": &e.csrW, "b64.sg": &e.b64, "b64-w.sg": &e.b64W} {
		if *dst, err = open(name); err != nil {
			return nil, fmt.Errorf("open %s: %w", name, err)
		}
	}
	e.openMS = ms(time.Since(t0))

	// Replicas: listener up, then WAL recovery (sage-serve's order), then
	// the router.
	t0 = time.Now()
	var recover time.Duration
	peers := make([]cluster.Peer, len(e.replicas))
	for i, r := range e.replicas {
		r.srv = server.New(serverConfig(tr))
		for name, p := range r.paths {
			if err := r.srv.AddDataset(name, p); err != nil {
				return nil, fmt.Errorf("add dataset: %w", err)
			}
		}
		if r.hs, err = serveLoopback(tr.wrapReplica(r.srv)); err != nil {
			return nil, err
		}
		rt0 := time.Now()
		if _, degraded := r.srv.Recover(); len(degraded) > 0 {
			return nil, fmt.Errorf("replica %s degraded at start: %v", r.name, degraded)
		}
		recover += time.Since(rt0)
		peers[i] = cluster.Peer{Name: r.name, URL: r.url()}
	}
	rcfg := cluster.RouterConfig{
		Peers:         peers,
		Replication:   numReplica,
		ProbeInterval: -1,
		CacheEntries:  64,
	}
	if tr != nil {
		rcfg.Client = &http.Client{Transport: &hopTransport{t: tr, base: &http.Transport{MaxIdleConnsPerHost: runtime.GOMAXPROCS(0) * 4}}}
	}
	if e.router, err = cluster.NewRouter(rcfg); err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	e.router.Start() // probes are off; Close waits on what Start sets up
	if e.front, err = serveLoopback(tr.wrapRouter(e.router)); err != nil {
		return nil, err
	}
	e.routerURL = e.front.url
	e.recoverMS = ms(recover)
	e.startMS = ms(time.Since(t0)) - e.recoverMS
	return e, nil
}

// close stops the cluster, closes the graphs, and removes the files.
func (e *env) close() error {
	if e.front != nil {
		e.front.close()
	}
	if e.router != nil {
		e.router.Close()
	}
	var errs []error
	for _, r := range e.replicas {
		if r.hs != nil {
			r.hs.close()
		}
		if r.srv != nil {
			errs = append(errs, r.srv.Close())
		}
	}
	for _, g := range []*sage.Graph{e.csr, e.csrW, e.b64, e.b64W} {
		if g != nil {
			errs = append(errs, g.Close())
		}
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}
