package wal

// Group-commit coverage: the AppendBuffer/Commit barrier shares one
// leader fsync across a window of writers; a failed group flush rolls
// every buffered batch back together (and poisons chained appends with
// ErrStaleChain); Close resolves in-flight tickets; and the multi-writer
// crash enumeration proves every acknowledged batch survives any crash
// point while the survivors stay a clean sequence prefix.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestGroupCommitSharedFsync(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	ffs := NewFaultFS(nil)

	l, _, err := Open(base+".wal", fp, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p1, err := l.AppendBuffer([]Op{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := l.AppendBuffer([]Op{{U: 1, V: 2}}, p1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Seq() != 1 || p2.Seq() != 2 {
		t.Fatalf("seqs %d, %d", p1.Seq(), p2.Seq())
	}

	// Committing the later batch makes the earlier one durable too: one
	// leader fsync covers the whole buffered window, so the second
	// Commit must resolve without touching the disk again.
	before := ffs.Steps()
	if err := l.Commit(p2); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(p1); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Steps() - before; got != 1 {
		t.Fatalf("%d disk steps for two commits, want 1 shared fsync", got)
	}
	if st := l.Stats(); st.GroupSyncs != 1 || st.GroupBatches != 2 {
		t.Fatalf("group counters: %+v", st)
	}
}

func TestGroupCommitRollbackFailsWindow(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"
	ffs := NewFaultFS(nil)

	l, _, err := Open(walPath, fp, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]Op{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}

	// Two buffered batches, then the disk stops fsyncing: the group
	// flush fails and BOTH roll back — the disk cannot say which of the
	// window's records it kept, so neither may be acknowledged.
	p2, err := l.AppendBuffer([]Op{{U: 1, V: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := l.AppendBuffer([]Op{{U: 2, V: 3}}, p2)
	if err != nil {
		t.Fatal(err)
	}
	ffs.SetSyncError(true)
	if err := l.Commit(p2); !IsInjectedSync(err) {
		t.Fatalf("commit under sync failure: %v", err)
	}
	if err := l.Commit(p3); !IsInjectedSync(err) {
		t.Fatalf("chained commit after rollback: %v", err)
	}
	// A batch staged on top of the rolled-back window is stale: the
	// overlay state it extended never became durable.
	if _, err := l.AppendBuffer([]Op{{U: 3, V: 4}}, p3); !errors.Is(err, ErrStaleChain) {
		t.Fatalf("append on rolled-back chain: %v", err)
	}

	// The disk heals: the sequence counter rewound with the rollback, so
	// the next batch reuses seq 2, and replay sees exactly the two
	// successful batches.
	ffs.SetSyncError(false)
	if seq, err := l.Append([]Op{{U: 5, V: 6}}); err != nil || seq != 2 {
		t.Fatalf("append after heal: seq %d err %v", seq, err)
	}
	_, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 2 ||
		!opsEqual(rec.Batches[0].Ops, []Op{{U: 0, V: 1}}) ||
		!opsEqual(rec.Batches[1].Ops, []Op{{U: 5, V: 6}}) {
		t.Fatalf("recovered %+v", rec.Batches)
	}
}

func TestGroupCommitCloseResolvesTickets(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.AppendBuffer([]Op{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Close flushes the buffered window; the ticket resolves durable and
	// a late Commit on the closed log reports that, not ErrClosed.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(p); err != nil {
		t.Fatalf("commit after close-flush: %v", err)
	}
	_, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 {
		t.Fatalf("recovered %d batches", len(rec.Batches))
	}
}

func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append([]Op{{U: uint32(w), V: uint32(i)}}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	st := l.Stats()
	if st.GroupBatches != writers*perWriter {
		t.Fatalf("group batches %d, want %d", st.GroupBatches, writers*perWriter)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != writers*perWriter {
		t.Fatalf("recovered %d of %d batches", len(rec.Batches), writers*perWriter)
	}
	// Every writer's batches replay in its submission order (each writer
	// serialized itself), with none lost and none duplicated.
	next := make([]uint32, writers)
	for i, b := range rec.Batches {
		if b.Seq != uint64(i+1) || len(b.Ops) != 1 {
			t.Fatalf("batch %d: seq %d, %d ops", i, b.Seq, len(b.Ops))
		}
		op := b.Ops[0]
		if op.V != next[op.U] {
			t.Fatalf("writer %d: batch %d replayed out of order", op.U, op.V)
		}
		next[op.U]++
	}
}

// crashWorkload drives several concurrent writers through one log on fs
// until the armed crash kills it, returning each writer's acknowledged
// count. rotate adds the segment cap so crash points land on rotation
// boundaries too.
func crashWorkload(dir string, fs *FaultFS, writers, perWriter int, rotate bool) (acked []int, openErr error) {
	base := filepath.Join(dir, "g.sg")
	fp, err := FingerprintFile(nil, base)
	if err != nil {
		return nil, err
	}
	opts := Options{FS: fs}
	if rotate {
		opts.SegmentBytes = 96
	}
	l, _, err := Open(base+".wal", fp, opts)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	acked = make([]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append([]Op{{U: uint32(w), V: uint32(i)}}); err != nil {
					return
				}
				acked[w]++
			}
		}(w)
	}
	wg.Wait()
	return acked, nil
}

func TestGroupCommitCrashEveryStep(t *testing.T) {
	// N concurrent writers, crash at every mutation step (so the crash
	// lands mid-group-commit — between buffering and the leader's fsync —
	// as often as anywhere else), with and without rotation. Invariants:
	// every acknowledged batch survives recovery; the survivors are a
	// contiguous sequence prefix; and per writer the surviving batches
	// are a prefix of its submission order, at most one past its acks
	// (the single batch it had in flight).
	const writers, perWriter = 4, 5
	for _, rotate := range []bool{false, true} {
		name := "flat"
		if rotate {
			name = "rotating"
		}
		t.Run(name, func(t *testing.T) {
			// How many mutations a run makes depends on how the scheduler
			// groups commits: fewer, larger groups take fewer steps. The
			// serialized run (every batch its own commit) is the upper
			// bound, so enumerating up to it covers every schedule's crash
			// points and keeps the set of cases the same from run to run.
			// Points past a given run's last mutation are the no-crash case.
			dryRun := func(w, per int) int {
				dryDir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dryDir, "g.sg"), []byte("base"), 0o644); err != nil {
					t.Fatal(err)
				}
				dry := NewFaultFS(nil)
				if _, err := crashWorkload(dryDir, dry, w, per, rotate); err != nil {
					t.Fatalf("dry run: %v", err)
				}
				return dry.Steps()
			}
			steps := max(dryRun(writers, perWriter), dryRun(1, writers*perWriter))
			if steps < 3+writers*perWriter {
				t.Fatalf("only %d steps in the dry run", steps)
			}

			for n := 1; n <= steps; n++ {
				for _, tear := range []int{0, 7} {
					t.Run(fmt.Sprintf("step%d/tear%d", n, tear), func(t *testing.T) {
						dir := t.TempDir()
						if err := os.WriteFile(filepath.Join(dir, "g.sg"), []byte("base"), 0o644); err != nil {
							t.Fatal(err)
						}
						ffs := NewFaultFS(nil)
						ffs.CrashAt(n, tear)
						acked, _ := crashWorkload(dir, ffs, writers, perWriter, rotate)
						if acked == nil { // crashed inside Open: nothing acked
							acked = make([]int, writers)
						}

						base := filepath.Join(dir, "g.sg")
						fp, err := FingerprintFile(nil, base)
						if err != nil {
							t.Fatal(err)
						}
						l, rec, err := Open(base+".wal", fp, Options{})
						if err != nil {
							t.Fatalf("recovery open: %v", err)
						}
						defer l.Close()

						totalAcked := 0
						for _, a := range acked {
							totalAcked += a
						}
						if rec.Discarded && totalAcked > 0 {
							t.Fatalf("chain with %d acked batches discarded", totalAcked)
						}
						// Survivors are a contiguous sequence prefix of real
						// submissions — no phantom, reordered, or corrupt batch.
						perW := make([]uint32, writers)
						for i, b := range rec.Batches {
							if b.Seq != uint64(i+1) || len(b.Ops) != 1 {
								t.Fatalf("batch %d: seq %d, %d ops", i, b.Seq, len(b.Ops))
							}
							op := b.Ops[0]
							if int(op.U) >= writers || op.V != perW[op.U] || op.W != 0 || op.Del {
								t.Fatalf("batch %d: phantom or out-of-order op %+v", i, op)
							}
							perW[op.U]++
						}
						// Acked batches all survived; at most the one batch each
						// writer had in flight may appear beyond its acks.
						for w := 0; w < writers; w++ {
							if got := int(perW[w]); got < acked[w] || got > acked[w]+1 {
								t.Fatalf("writer %d: acked %d, recovered %d", w, acked[w], got)
							}
						}
						// The recovered chain accepts new appends.
						if seq, err := l.Append([]Op{{U: 9, V: 9}}); err != nil || seq != uint64(len(rec.Batches)+1) {
							t.Fatalf("append after recovery: seq %d err %v", seq, err)
						}
					})
				}
			}
		})
	}
}
