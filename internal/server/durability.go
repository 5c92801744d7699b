package server

// The durable half of the update path. Without it, every delta overlay
// is DRAM-only: a crash loses all batches applied since the last
// compaction, and a restarted server silently serves the stale base. With
// durability enabled, each dataset gets a write-ahead log at <path>.wal
// (internal/wal): an accepted batch is appended — and, under the "always"
// fsync policy, on disk — before its overlay becomes visible, so the
// served state is always reconstructible from (container generation,
// surviving log records). Recovery replays those records onto the stored
// base; compaction folds them into a new container generation and retires
// the log.
//
// Writes to one dataset do not serialize on the fsync: a batch is staged
// into the log under the writer mutex (wal.Log.AppendBuffer), then the
// mutex is released while the group-commit barrier (wal.Log.Commit) runs —
// one leader fsync acknowledges every batch buffered in the window. The
// next writer chains onto the staged chain's tail (see the package
// comment in updates.go), so N concurrent writers pay ~1 fsync per window
// instead of N.
//
// Under a segment cap (Durability.SegmentBytes) the log rotates into a
// fingerprint-linked chain of sealed segments (<path>.wal.1, .wal.2, …);
// recovery replays the whole chain in order and compaction retires it.
//
// Degradation is graceful and self-healing: when the log cannot be
// appended to (disk full, fsync failure, a log that failed to open),
// the dataset drops to read-only — writes answer 503 with a
// machine-readable reason while reads keep serving — and the next write
// attempt probes the log again, so the dataset recovers the moment the
// disk does, without a restart.

import (
	"errors"
	"fmt"
	"time"

	"sage"
	"sage/internal/wal"
)

// WALSuffix is appended to a dataset's stored path to name its
// write-ahead log's active segment.
const WALSuffix = ".wal"

// Durability configures the write-ahead log guarding update batches.
// The zero value disables it (updates are DRAM-only, pre-WAL behavior).
type Durability struct {
	// Enabled turns the per-dataset write-ahead log on.
	Enabled bool
	// Policy selects when appended batches are fsynced (default
	// wal.SyncAlways: a batch is durable before its 200 is written).
	Policy wal.SyncPolicy
	// Interval is the background flush period under wal.SyncInterval.
	Interval time.Duration
	// SegmentBytes caps the active segment: when an append would push it
	// past the cap, the segment is sealed into the numbered chain and a
	// fresh one started. 0 means a single unbounded segment.
	SegmentBytes int64
	// FS substitutes the filesystem the segments live on; nil means the
	// real one. Tests inject wal.FaultFS here to simulate crashes, short
	// writes, and fsync failures.
	FS wal.FS
}

// errReadOnly marks a write rejected because the dataset's WAL is
// unwritable (503 with reason "read_only").
var errReadOnly = errors.New("dataset is read-only: write-ahead log unavailable")

// walState is one dataset's durability state. All fields are guarded by
// updates.mu: the log pointer is read by metrics and by committers that
// have already released the writer mutex, and close() swaps it to nil
// without holding any writer mutex. The wal.Log itself is internally
// synchronized, so holders of a snapshotted pointer stay safe across a
// concurrent swap.
type walState struct {
	log      *wal.Log // nil when the log could not be opened
	readOnly bool
	reason   string // degradation cause, "" when healthy
}

// logOf snapshots ws's log pointer under updates.mu.
func (u *updates) logOf(ws *walState) *wal.Log {
	if ws == nil {
		return nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	return ws.log
}

// setLog swaps ws's log pointer under updates.mu.
func (u *updates) setLog(ws *walState, log *wal.Log) {
	u.mu.Lock()
	ws.log = log
	u.mu.Unlock()
}

// setWALHealth records the outcome of the latest log operation: a nil
// err restores the dataset to writable, a non-nil one degrades it to
// read-only with the error as the reason.
func (u *updates) setWALHealth(ws *walState, err error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err != nil {
		ws.readOnly, ws.reason = true, err.Error()
	} else {
		ws.readOnly, ws.reason = false, ""
	}
}

// walInfo reports d's durability state for listings: whether the
// dataset is currently read-only and why.
func (u *updates) walInfo(d *dataset) (readOnly bool, reason string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if d.wal != nil {
		return d.wal.readOnly, d.wal.reason
	}
	return false, ""
}

// recoverLocked opens d's WAL and replays surviving records onto the
// stored base, installing the recovered snapshot as the current version.
// It runs once per dataset — the record's wal field memoizes the
// outcome, including failure (the dataset is then read-only until a
// retried recovery succeeds). The caller holds d.mu.
func (u *updates) recoverLocked(d *dataset) *walState {
	u.mu.Lock()
	ws, closed := d.wal, u.closed
	u.mu.Unlock()
	if ws != nil {
		return ws
	}
	ws = &walState{}
	if closed {
		// Shutdown already closed every log; opening a fresh one now
		// would orphan it. Report the dataset unwritable and do not
		// register the state, so nothing survives past close().
		ws.readOnly, ws.reason = true, errShuttingDown.Error()
		return ws
	}
	u.openSegment(ws, d)
	u.mu.Lock()
	if !u.closed {
		d.wal = ws
		u.mu.Unlock()
		return ws
	}
	// close() ran while we were opening: hand the log straight back
	// instead of registering it.
	log := ws.log
	ws.log = nil
	u.mu.Unlock()
	if log != nil {
		_ = log.Close()
	}
	return ws
}

// openSegment fingerprints the container, opens (or creates) its WAL
// chain, and replays surviving records. On any failure the dataset is
// left read-only with the cause as the machine-readable reason; reads
// keep serving the base. Caller holds d.mu.
func (u *updates) openSegment(ws *walState, d *dataset) {
	path := d.path
	fp, err := wal.FingerprintFile(u.wcfg.FS, path)
	if err != nil {
		u.setWALHealth(ws, fmt.Errorf("fingerprinting container: %w", err))
		return
	}
	log, rec, err := wal.Open(path+WALSuffix, fp, wal.Options{
		FS: u.wcfg.FS, Policy: u.wcfg.Policy, Interval: u.wcfg.Interval,
		SegmentBytes: u.wcfg.SegmentBytes,
	})
	if err != nil {
		u.setWALHealth(ws, err)
		return
	}
	u.setLog(ws, log)
	u.setWALHealth(ws, nil)
	if rec.Discarded {
		u.walDiscarded.Add(1)
	}
	if len(rec.Batches) == 0 {
		return
	}

	// Replay. A current version can only exist if a previous recovery
	// succeeded, and successful recoveries never rerun; guard anyway so a
	// logic error cannot double-apply batches.
	u.mu.Lock()
	hasVersion := d.version != nil
	u.mu.Unlock()
	if hasVersion {
		return
	}
	h, err := u.catalog.acquire(d)
	if err != nil {
		_ = log.Close() // abandoning the log; the open error is the story
		u.setLog(ws, nil)
		u.setWALHealth(ws, fmt.Errorf("opening base for replay: %w", err))
		return
	}
	snap := sage.GraphFromDataset(h.Dataset()).Snapshot()
	var good wal.Batch // zero value: truncate the whole chain away
	replayed := 0
	for _, b := range rec.Batches {
		next, err := snap.ApplyBatch(edgeOps(b.Ops))
		if err != nil {
			// A record that no longer applies to this base is cut off like
			// a torn tail: everything before it is the recovered state.
			if terr := log.TruncateTo(good); terr != nil {
				// The bad tail is still on disk and would replay again
				// after a crash; refuse writes until the disk recovers.
				u.setWALHealth(ws, fmt.Errorf("truncating unreplayable tail: %w", terr))
			}
			break
		}
		snap = next
		good = b
		replayed++
	}
	u.walReplayed.Add(int64(replayed))
	if snap.DeltaWords() == 0 {
		// The surviving batches cancel out (or were all no-ops): the base
		// is already the recovered state.
		h.Release()
		return
	}
	// Replay republishes records the WAL already holds; no new append is due.
	gen := u.catalog.cache.Bump(path) //sage:allow walorder
	nv := &snapVersion{snap: snap, gen: gen, ds: h.Dataset(), h: h, refs: 1}
	u.mu.Lock()
	d.version = nv
	u.mu.Unlock()
}

// ensureRecovered replays d's surviving WAL records (once) before a read
// or write observes the dataset. Cheap after the first call.
func (u *updates) ensureRecovered(d *dataset) {
	if !u.wcfg.Enabled {
		return
	}
	u.mu.Lock()
	done := d.wal != nil
	u.mu.Unlock()
	if done {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	u.recoverLocked(d)
}

// walStage buffers one batch into the dataset's log, chained after the
// staged chain's tail (after is the tail's wal.Pending, nil when the
// chain is empty). The record has a sequence number but is not durable
// yet — walCommit drives the barrier. A wal.ErrStaleChain return means
// the window the tail belongs to failed its group fsync; the caller
// drops the failed suffix and restages on what remains. Any other
// failure degrades the dataset to read-only. Caller holds d.mu.
func (u *updates) walStage(ws *walState, d *dataset, log *wal.Log, ops []sage.EdgeOp, after *wal.Pending) (*wal.Pending, error) {
	if log == nil {
		u.readOnlyRejected.Add(1)
		_, reason := u.walInfo(d)
		return nil, fmt.Errorf("%w (dataset %q): %s", errReadOnly, d.name, reason)
	}
	p, err := log.AppendBuffer(walOps(ops), after)
	if err != nil {
		if errors.Is(err, wal.ErrStaleChain) {
			return nil, err // internal signal: drop the failed suffix and restage
		}
		u.setWALHealth(ws, err)
		u.readOnlyRejected.Add(1)
		return nil, fmt.Errorf("%w (dataset %q): %v", errReadOnly, d.name, err)
	}
	return p, nil
}

// walCommit waits out the group-commit barrier for a staged batch: it
// returns once a leader fsync (ours or a concurrent committer's) has made
// the batch durable per the configured policy, before the overlay becomes
// visible. A failure degrades the dataset to read-only and rejects the
// write — the log rolled the window back to its durable prefix, so the
// next attempt probes a clean tail and the dataset recovers without
// intervention. The caller does NOT need the writer mutex: that is the
// point.
//
//sage:durable-append
func (u *updates) walCommit(ws *walState, name string, log *wal.Log, p *wal.Pending) error {
	if err := log.Commit(p); err != nil {
		if errors.Is(err, wal.ErrClosed) {
			// The log died (or shutdown closed it). Drop the pointer so
			// the next write retries recovery from scratch.
			u.mu.Lock()
			if ws.log == log {
				ws.log = nil
			}
			u.mu.Unlock()
		}
		u.setWALHealth(ws, err)
		u.readOnlyRejected.Add(1)
		return fmt.Errorf("%w (dataset %q): %v", errReadOnly, name, err)
	}
	u.walAppends.Add(1)
	u.setWALHealth(ws, nil)
	return nil
}

// retireSegment retires d's WAL chain after a compaction durably
// replaced the container: the folded records must never replay onto the
// new generation. Even if the process dies before the removal lands, the
// stale chain's base fingerprint no longer matches the rewritten
// container, so recovery discards it — removal is cleanup, not
// correctness. A fresh log is then opened for the new generation.
// Caller holds d.mu.
func (u *updates) retireSegment(ws *walState, d *dataset) {
	if ws == nil {
		return
	}
	if log := u.logOf(ws); log != nil {
		// A failed remove leaves a stale chain that can never replay
		// (its fingerprint no longer matches the rewritten container),
		// and openSegment's fresh open re-probes the disk immediately.
		log.CloseAndRemove() //sage:allow syncerr
		u.setLog(ws, nil)
	}
	u.openSegment(ws, d)
}

// walSnapshot reports the durability layer for /metrics, aggregating the
// per-log chain and group-commit counters across datasets.
func (u *updates) walSnapshot() walStats {
	s := walStats{Enabled: u.wcfg.Enabled, Policy: u.wcfg.Policy.String()}
	if !u.wcfg.Enabled {
		return s
	}
	datasets := u.catalog.all()
	var logs []*wal.Log
	u.mu.Lock()
	for _, d := range datasets {
		ws := d.wal
		if ws == nil {
			continue
		}
		if ws.readOnly {
			s.ReadOnlyDatasets++
		}
		if ws.log != nil {
			logs = append(logs, ws.log)
		}
	}
	u.mu.Unlock()
	for _, log := range logs {
		st := log.Stats()
		s.Segments += st.Segments
		s.Rotations += st.Rotations
		s.GroupSyncs += st.GroupSyncs
		s.GroupBatches += st.GroupBatches
	}
	s.Appends = u.walAppends.Load()
	s.ReplayedBatches = u.walReplayed.Load()
	s.DiscardedSegments = u.walDiscarded.Load()
	s.RejectedReadOnly = u.readOnlyRejected.Load()
	return s
}

// walStats is the /metrics view of the durability layer. GroupSyncs and
// GroupBatches measure group-commit effectiveness: batches ÷ syncs is the
// mean commit window — 1.0 means every batch paid its own fsync, higher
// means concurrent writers shared leader flushes.
type walStats struct {
	Enabled           bool   `json:"enabled"`
	Policy            string `json:"policy"`
	ReadOnlyDatasets  int    `json:"read_only_datasets"`
	Appends           int64  `json:"appends"`
	ReplayedBatches   int64  `json:"replayed_batches"`
	DiscardedSegments int64  `json:"discarded_segments"`
	RejectedReadOnly  int64  `json:"rejected_read_only"`
	Segments          int    `json:"segments"`
	Rotations         int64  `json:"rotations"`
	GroupSyncs        int64  `json:"group_syncs"`
	GroupBatches      int64  `json:"group_batches"`
}

// walOps converts a validated batch to its log form.
func walOps(ops []sage.EdgeOp) []wal.Op {
	out := make([]wal.Op, len(ops))
	for i, op := range ops {
		out[i] = wal.Op{U: op.U, V: op.V, W: op.W, Del: op.Del}
	}
	return out
}

// edgeOps converts replayed log records back to batch form.
func edgeOps(ops []wal.Op) []sage.EdgeOp {
	out := make([]sage.EdgeOp, len(ops))
	for i, op := range ops {
		out[i] = sage.EdgeOp{U: op.U, V: op.V, W: op.W, Del: op.Del}
	}
	return out
}
