package server

// Staged-chain tests: a failed group fsync must drop only the failed
// suffix of a dataset's staged chain. A batch whose commit succeeded was
// acknowledged, so no later writer or compaction may rebuild the
// dataset's state without it, neither live nor after a restart.

import (
	"errors"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sage"
	"sage/internal/wal"
)

// gateFS is a wal.FS whose file Syncs a test can hold open and fail on
// demand, to pin which commit window is in flight when, or fail at
// random.
type gateFS struct {
	wal.FS
	mu      sync.Mutex
	hold    chan struct{} // non-nil: the next Sync closes entered, then waits for hold
	entered chan struct{}
	fail    bool       // the next Sync to start fails without syncing
	rng     *rand.Rand // non-nil: each Sync also fails with probability rate
	rate    float64
}

var errGateSync = errors.New("gate: injected fsync failure")

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, g: g}, nil
}

// holdNextSync makes the next Sync block until release is called (once
// or more); entered closes when that Sync has started.
func (g *gateFS) holdNextSync(t *testing.T) (entered <-chan struct{}, release func()) {
	hold, e := make(chan struct{}), make(chan struct{})
	g.mu.Lock()
	g.hold, g.entered = hold, e
	g.mu.Unlock()
	release = sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release) // never leave a Sync parked under the server's Close
	return e, release
}

func (g *gateFS) failNextSync() {
	g.mu.Lock()
	g.fail = true
	g.mu.Unlock()
}

type gateFile struct {
	wal.File
	g *gateFS
}

func (f gateFile) Sync() error {
	f.g.mu.Lock()
	hold, entered, fail := f.g.hold, f.g.entered, f.g.fail
	f.g.hold, f.g.fail = nil, false
	if f.g.rng != nil && f.g.rng.Float64() < f.g.rate {
		fail = true
	}
	f.g.mu.Unlock()
	if hold != nil {
		close(entered)
		<-hold
	}
	if fail {
		return errGateSync
	}
	return f.File.Sync()
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// await receives one value from ch: a writer's outcome, or a signal.
func await[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// goApply runs one update batch on its own goroutine.
func goApply(srv *Server, ops []sage.EdgeOp, compact bool) <-chan error {
	ch := make(chan error, 1)
	go func() {
		_, err := srv.updates.apply("g", ops, compact, 0)
		ch <- err
	}()
	return ch
}

// serves reports whether a run on srv's dataset "g" sees edge op.
func serves(t *testing.T, srv *Server, op sage.EdgeOp) bool {
	t.Helper()
	return servedSet(t, srv, "g")[arc{op.U, op.V, 1}]
}

// writerRecord returns dataset "g"'s record.
func writerRecord(t *testing.T, srv *Server) *dataset {
	t.Helper()
	d, err := srv.catalog.get("g")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFailedCommitWindowKeepsAckedBatch pins the failed-window
// interleaving: writer A's fsync is in flight, writer B stages on A, A's
// fsync succeeds (A is acknowledged) and B's fails. Whatever runs next
// must build on A's durable entry rather than on the published state,
// which does not include A yet:
//
//   - compact: a compaction holds the writer mutex across both fsyncs,
//     then folds the dataset and retires the WAL;
//   - insert: A pauses between its commit and its relock while B fails
//     and a later insert D publishes.
//
// A's edge must be served afterwards and still be there after a restart;
// B's must not appear anywhere.
func TestFailedCommitWindowKeepsAckedBatch(t *testing.T) {
	opA, opB, opD := sage.EdgeOp{U: 0, V: 9}, sage.EdgeOp{U: 1, V: 10}, sage.EdgeOp{U: 2, V: 11}
	for _, variant := range []string{"compact", "insert"} {
		t.Run(variant, func(t *testing.T) {
			path := makeBase(t, t.TempDir(), 16)
			gfs := &gateFS{FS: wal.OS}
			srv := newWALServer(t, path, gfs)
			if _, degraded := srv.Recover(); len(degraded) != 0 {
				t.Fatalf("degraded at start: %v", degraded)
			}
			mu := &writerRecord(t, srv).mu

			// Pause A after its commit (insert variant only): the first
			// successful commit is A's, since nothing else can succeed
			// before D starts, and D starts after A is parked.
			parked, resume := make(chan struct{}), make(chan struct{})
			unpark := sync.OnceFunc(func() { close(resume) })
			t.Cleanup(unpark)
			if variant == "insert" {
				var first atomic.Bool
				srv.updates.afterCommit = func(err error) {
					if err == nil && first.CompareAndSwap(false, true) {
						close(parked)
						<-resume
					}
				}
			}

			entered, release := gfs.holdNextSync(t)
			resA := goApply(srv, []sage.EdgeOp{opA}, false)
			await(t, "A's fsync", entered) // A leads its window's fsync, now held
			info, err := os.Stat(path + WALSuffix)
			if err != nil {
				t.Fatal(err)
			}
			resB := goApply(srv, []sage.EdgeOp{opB}, false)
			// B has staged on A once its record is in the log and it has
			// let go of the writer mutex to wait out the barrier.
			waitFor(t, "B to stage on A", func() bool {
				now, err := os.Stat(path + WALSuffix)
				if err != nil || now.Size() <= info.Size() || !mu.TryLock() {
					return false
				}
				mu.Unlock()
				return true
			})

			var resC <-chan error
			if variant == "compact" {
				resC = goApply(srv, nil, true)
				// A and B are parked in Commit, so only the compaction can
				// hold the writer mutex now.
				waitFor(t, "the compaction to take the writer mutex", func() bool {
					if mu.TryLock() {
						mu.Unlock()
						return false
					}
					return true
				})
			}

			gfs.failNextSync() // B's window
			release()          // A's window succeeds

			if variant == "insert" {
				await(t, "A's commit", parked)
				if err := await(t, "B", resB); !errors.Is(err, errReadOnly) {
					t.Fatalf("B: got %v, want a read-only rejection", err)
				}
				if _, err := srv.updates.apply("g", []sage.EdgeOp{opD}, false, 0); err != nil {
					t.Fatalf("D: %v", err)
				}
				if !serves(t, srv, opA) || !serves(t, srv, opD) {
					t.Fatalf("after D published: A served=%v, D served=%v; want both",
						serves(t, srv, opA), serves(t, srv, opD))
				}
				unpark()
			} else {
				if err := await(t, "B", resB); !errors.Is(err, errReadOnly) {
					t.Fatalf("B: got %v, want a read-only rejection", err)
				}
				if err := await(t, "the compaction", resC); err != nil {
					t.Fatalf("compaction: %v", err)
				}
			}
			if err := await(t, "A", resA); err != nil {
				t.Fatalf("A was not acknowledged: %v", err)
			}

			if !serves(t, srv, opA) {
				t.Fatal("acknowledged batch A is missing from live reads")
			}
			if serves(t, srv, opB) {
				t.Fatal("failed batch B is served")
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			srv2 := newWALServer(t, path, nil)
			if _, degraded := srv2.Recover(); len(degraded) != 0 {
				t.Fatalf("degraded after restart: %v", degraded)
			}
			if !serves(t, srv2, opA) {
				t.Fatal("acknowledged batch A is missing after a restart")
			}
			if serves(t, srv2, opB) {
				t.Fatal("failed batch B is served after a restart")
			}
		})
	}
}

// TestStagedChainUnderFlakyFsync drives concurrent writers and a
// back-to-back compactor while a quarter of all fsyncs fail. Every
// batch is a distinct edge, so the outcome is checkable per batch:
// each acknowledged one must be served, live and after a restart, and
// each rejected one never, and no entry may stay staged once every
// writer has returned.
func TestStagedChainUnderFlakyFsync(t *testing.T) {
	const writers, perWriter = 4, 20
	for seed := int64(1); seed <= 8; seed++ {
		path := makeBase(t, t.TempDir(), 128)
		gfs := &gateFS{FS: wal.OS, rng: rand.New(rand.NewSource(seed)), rate: 0.25}
		srv := newWALServer(t, path, gfs)
		srv.Recover()
		edge := func(w, i int) sage.EdgeOp { return sage.EdgeOp{U: uint32(w), V: uint32(8 + w*perWriter + i)} }

		acked := make([][]bool, writers)
		var wg sync.WaitGroup
		for w := range acked {
			acked[w] = make([]bool, perWriter)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range perWriter {
					_, err := srv.updates.apply("g", []sage.EdgeOp{edge(w, i)}, false, 0)
					acked[w][i] = err == nil
					if err != nil && !errors.Is(err, errReadOnly) {
						t.Errorf("seed %d: writer %d batch %d: %v", seed, w, i, err)
					}
				}
			}()
		}
		stop := make(chan struct{})
		compactorDone := make(chan struct{})
		go func() {
			defer close(compactorDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := srv.updates.apply("g", nil, true, 0); err != nil {
					t.Errorf("seed %d: compaction: %v", seed, err)
				}
			}
		}()
		wg.Wait()
		close(stop)
		<-compactorDone

		d := writerRecord(t, srv)
		srv.updates.mu.Lock()
		staged := len(d.staged)
		srv.updates.mu.Unlock()
		if staged != 0 {
			t.Fatalf("seed %d: %d entries still staged with every writer returned", seed, staged)
		}
		check := func(s *Server, when string) {
			got := servedSet(t, s, "g")
			for w := range acked {
				for i, ok := range acked[w] {
					if op := edge(w, i); got[arc{op.U, op.V, 1}] != ok {
						t.Fatalf("seed %d, %s: writer %d batch %d acked=%v but served=%v", seed, when, w, i, ok, !ok)
					}
				}
			}
		}
		check(srv, "live")
		_ = srv.Close()
		srv2 := newWALServer(t, path, nil)
		srv2.Recover()
		check(srv2, "after restart")
	}
}
