package server

// Batch-dynamic updates for served datasets. The stored file stays
// immutable; POST /v1/update/{dataset} folds a batch of edge ops into a
// DRAM-resident delta overlay (sage.Snapshot) and atomically swaps the
// dataset's current snapshot. Snapshots are versioned and refcounted:
//
//   - Every run pins the snapshot version current when it was admitted;
//     an update arriving mid-run swaps the current version without
//     touching pinned ones, and a version's base mapping is released only
//     when the record's reference and every pinned run are gone.
//   - Each swap bumps the dataset's generation through store.Cache.Bump,
//     so result-cache keys (generation, algo, args) from older versions
//     can never answer a query against the new one.
//   - A compacting update writes the merged view through sage.Create
//     (atomic temp-file rename over the dataset path), invalidates the
//     cache entry so new requests map the compacted file, and drops the
//     overlay; in-flight runs finish on the detached old mapping.
//
// Concurrent writers to one dataset do not serialize on the fsync. All
// of a dataset's write state lives in its catalog record (see dataset in
// catalog.go), including the staged chain: the batches whose WAL records
// are buffered or durable but not yet published, in WAL order. Four
// rules keep it consistent:
//
//   - Build: a writer builds its batch on the chain's tail (or on the
//     published version when the chain is empty), buffers its WAL record
//     chained after the tail's (wal.Log.AppendBuffer), appends itself to
//     the chain and releases the writer mutex for the group-commit
//     barrier (wal.Log.Commit), so a window of N batches shares one fsync.
//   - Publish: once its own commit succeeds, the writer relocks and
//     publishes its own snapshot — which includes every earlier entry,
//     all durable because a group fsync makes a prefix of the log
//     durable — and drops every entry up to and including its own.
//   - Superseded: a writer whose entry is already gone when it relocks
//     was folded in by a later publish or a compaction; it reports the
//     record's latest generation instead of publishing stale state.
//   - Failure: a failed commit, a wal.ErrStaleChain rebase or a
//     compaction's flush drops only the failed suffix of the chain,
//     found by committing each entry in order (dropFailed). Nothing
//     durable is ever rebased away: it stays staged until it publishes.
//
// The delta budget bounds each dataset's overlay DRAM words — the PSAM
// small-memory account the overlay lives in. A batch that would exceed it
// is rejected with 507 Insufficient Storage until a compaction folds the
// delta into the base.
//
// Auto-compaction closes the loop with the cost model: every batch
// re-prices the dataset's overlay traversal overhead — the predicted
// extra cost a full-edge run pays because updates still live in the
// overlay (costmodel.OverlayOverhead under the engine's profile) — and
// when it crosses the configured threshold the overlay is folded into
// the base exactly as an explicit compact request would. The trigger is
// a hysteresis band (fire at the threshold, re-arm only after the
// overhead falls below half of it), so a dataset hovering near the
// threshold compacts once, not on every batch.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"sage"
	"sage/internal/costmodel"
	"sage/internal/store"
	"sage/internal/wal"
)

// errDeltaBudget marks a rejected over-budget batch (507).
var errDeltaBudget = fmt.Errorf("delta budget exceeded")

// errShuttingDown marks a write that arrived after close() began (503).
var errShuttingDown = errors.New("server is shutting down")

// snapVersion is one published snapshot of a dataset: the overlay view,
// its logical generation, and the cache handle pinning the base mapping.
// refs counts the record's reference plus every in-flight run.
type snapVersion struct {
	snap *sage.Snapshot
	gen  uint64
	ds   *store.Dataset // the base the snapshot composes with
	h    *store.Handle
	refs int // guarded by updates.mu
}

// stagedBatch is one entry of a dataset's staged chain: a batch whose WAL
// record is buffered in log (possibly mid-fsync) or durable, but whose
// overlay is not yet published. The next writer builds on snap and
// chains its record after p instead of waiting for the window to flush.
// The staging writer stays in flight until its entry publishes, is
// folded into a later publish, or is dropped as failed, and holds its
// own base pin for that whole span, so snap's base mapping cannot be
// released while the entry is staged.
type stagedBatch struct {
	snap *sage.Snapshot
	ds   *store.Dataset
	log  *wal.Log // the log p belongs to
	p    *wal.Pending
}

// updates owns the write path: batch building, the staged chain,
// publication and compaction, over the records in catalog.
type updates struct {
	catalog *catalog
	budget  int64      // max overlay DRAM words per dataset; 0 = unlimited
	wcfg    Durability // write-ahead log configuration (see durability.go)

	// model prices overlay traversal overhead; autoHigh/autoLow bound the
	// auto-compaction hysteresis band (autoHigh 0 disables it).
	model    costmodel.Profile
	autoHigh int64
	autoLow  int64

	// afterCommit, when non-nil, runs between a staged batch's commit and
	// its writer's relock, with the commit's error. Always nil outside
	// tests, which use it to pin interleavings.
	afterCommit func(error)

	mu     sync.Mutex // guards closed and every record's write state
	closed bool       // set by close(); no log may be opened or state published after

	batches           atomic.Int64
	opsApplied        atomic.Int64
	compactions       atomic.Int64
	autoCompactions   atomic.Int64
	autoCompactErrors atomic.Int64
	rejectedDelta     atomic.Int64
	walAppends        atomic.Int64
	walReplayed       atomic.Int64
	walDiscarded      atomic.Int64
	readOnlyRejected  atomic.Int64
}

func newUpdates(c *catalog, budgetWords int64, wcfg Durability, model costmodel.Profile, autoCompactCost int64) *updates {
	if wcfg.FS == nil {
		wcfg.FS = wal.OS
	}
	return &updates{
		catalog:  c,
		budget:   budgetWords,
		wcfg:     wcfg,
		model:    model,
		autoHigh: autoCompactCost,
		autoLow:  autoCompactCost / 2,
	}
}

// overlayCost prices snap's overlay traversal overhead under the model.
func (u *updates) overlayCost(snap *sage.Snapshot) int64 {
	added, deleted := snap.DeltaArcs()
	return costmodel.OverlayOverhead(&u.model, snap.DeltaWords(), added, deleted)
}

// pin returns d's current snapshot version, refcounted, or nil when it
// has no overlay. The caller must unref it when its run ends.
func (u *updates) pin(d *dataset) *snapVersion {
	u.mu.Lock()
	defer u.mu.Unlock()
	v := d.version
	if v != nil {
		v.refs++
	}
	return v
}

// unref drops one reference; the last one releases the base pin.
func (u *updates) unref(v *snapVersion) {
	u.mu.Lock()
	v.refs--
	last := v.refs == 0
	u.mu.Unlock()
	if last {
		v.h.Release()
	}
}

// isClosed reports whether close() has begun.
func (u *updates) isClosed() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.closed
}

// dropFailed applies the chain's failure rule: it commits d's staged
// entries in WAL order, through last (the whole chain when last is nil),
// and drops the chain from the first entry that is not durable. A group
// fsync makes a prefix of the log durable and fails everything after it,
// so the failed entries form a suffix and every entry kept is durable;
// its writer publishes it, or a later publish folds it in. Commit waits
// out a window still in flight. Caller holds d.mu.
func (u *updates) dropFailed(d *dataset, last *stagedBatch) {
	u.mu.Lock()
	chain := d.staged
	u.mu.Unlock()
	if last != nil {
		i := slices.Index(chain, last)
		if i < 0 {
			return // already dropped with an earlier failed suffix
		}
		chain = chain[:i+1]
	}
	for i, e := range chain {
		if e.log.Commit(e.p) != nil {
			u.mu.Lock()
			if len(d.staged) > i { // close() may have emptied the chain
				clear(d.staged[i:]) // release the dropped snapshots
				d.staged = d.staged[:i]
			}
			u.mu.Unlock()
			return
		}
	}
}

// deltaStats gathers the per-dataset overlay footprints and their
// predicted traversal overheads, for /metrics: the aggregate counters
// alone cannot tell which dataset's overlay is the expensive one.
func (u *updates) deltaStats() (perDataset map[string]datasetDeltaStats, words int64) {
	datasets := u.catalog.all()
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, d := range datasets {
		v := d.version
		if v == nil {
			continue
		}
		if perDataset == nil {
			perDataset = map[string]datasetDeltaStats{}
		}
		added, deleted := v.snap.DeltaArcs()
		perDataset[d.name] = datasetDeltaStats{
			DeltaWords:           v.snap.DeltaWords(),
			DeltaArcsAdded:       added,
			DeltaArcsDeleted:     deleted,
			OverlayCostPredicted: u.overlayCost(v.snap),
			AutoCompactArmed:     !d.disarmed,
		}
		words += v.snap.DeltaWords()
	}
	return perDataset, words
}

// updateResult is what apply reports back to the handler.
type updateResult struct {
	generation    uint64
	vertices      uint32
	edges         uint64
	deltaWords    int64
	arcsAdded     uint64
	arcsDeleted   uint64
	compacted     bool
	autoCompacted bool  // the cost-model hysteresis, not the client, asked
	compactErr    error // the requested fold failed; the batch itself stands
}

// apply folds ops into name's current snapshot (creating the identity
// snapshot on first update), optionally compacting afterwards. It returns
// errUnknownDataset, errDeltaBudget, a sage validation error (client
// errors), errReadOnly (the WAL is unwritable, 503), errShuttingDown
// (close() began, 503), or an IO error.
//
// With durability enabled the batch joins the dataset's staged chain and
// is carried through the group-commit barrier — under the always policy
// it is durable — before its overlay becomes visible, so the published
// state never gets ahead of the log; the writer mutex is released for
// the fsync wait (see the package comment). A batch that changes nothing
// publishes nothing: no swap, no log record, and no generation bump, so
// cached results survive it. A compaction requested alongside ops is a
// second phase: if the container rewrite fails, the (already durable,
// already published) overlay stands, and the failure is reported in-band
// through updateResult.compactErr — exactly the state crash recovery
// would rebuild.
//
// minGen is a generation floor: when the batch publishes a new
// generation (a real swap or a compaction), that generation is raised to
// at least minGen (0: no floor). The cluster router sets the floor on
// update fan-out — X-Sage-Sync-Generation carries the primary owner's
// post-batch generation — so every owner publishes the same batch at the
// same generation and (generation, algo, args) result-cache keys mean
// the same thing on every replica. A no-op batch keeps its no-publish
// guarantee: contents already match the floor's state, so cached results
// stay valid and the existing generation is reported.
func (u *updates) apply(name string, ops []sage.EdgeOp, compact bool, minGen uint64) (*updateResult, error) {
	d, err := u.catalog.get(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	if u.isClosed() {
		return nil, errShuttingDown
	}

	var ws *walState
	if u.wcfg.Enabled {
		ws = u.recoverLocked(d)
		if u.logOf(ws) == nil {
			// The log failed to open (or to reopen after compaction).
			// Retry the whole recovery so a healed disk needs no restart;
			// replay skips a dataset that already has a published
			// version, so it cannot double-apply anything.
			u.mu.Lock()
			d.wal = nil
			u.mu.Unlock()
			ws = u.recoverLocked(d)
		}
	}

	// A compaction folds the overlay into the container, so it cannot run
	// with a commit window in flight: wait out the staged chain here,
	// under the lock. Its failed suffix is dropped (none of it was
	// acknowledged); the durable prefix is built on below, published and
	// folded in.
	if compact {
		u.dropFailed(d, nil)
	}

	// The new version needs its own pin on the base mapping. While we hold
	// the writer mutex no compaction can invalidate the entry, and any
	// current version's or staged entry's pin keeps it from being
	// evicted, so this resolves to the mapping they compose with.
	h, err := u.catalog.acquire(d)
	if err != nil {
		return nil, err
	}

	// Build the batch on the chain's tail when there is one, else on the
	// published version, and stage its WAL record chained after the
	// tail's. A stale-chain rejection means the tail's commit window
	// failed while we were applying ops; drop the failed suffix and
	// rebuild once on what remains.
	var snap, next *sage.Snapshot
	var cur *snapVersion
	var pend *wal.Pending
	var log *wal.Log
	noop := false
	for attempt := 0; ; attempt++ {
		var tail *stagedBatch
		u.mu.Lock()
		cur = d.version
		if n := len(d.staged); n > 0 {
			tail = d.staged[n-1]
		}
		u.mu.Unlock()
		base := cur
		if tail != nil {
			base = &snapVersion{snap: tail.snap, ds: tail.ds}
		}
		if base != nil {
			if base.ds != h.Dataset() { // unreachable; guards the pin invariant
				h.Release()
				return nil, fmt.Errorf("snapshot base lost its mapping (dataset %q)", name)
			}
			snap = base.snap
		} else {
			snap = sage.GraphFromDataset(h.Dataset()).Snapshot()
		}

		next, err = snap.ApplyBatch(ops)
		if err != nil {
			h.Release()
			return nil, err
		}
		if u.budget > 0 && next.DeltaWords() > u.budget && !compact {
			h.Release()
			u.rejectedDelta.Add(1)
			return nil, fmt.Errorf("%w: overlay would hold %d DRAM words (budget %d); compact or split the batch",
				errDeltaBudget, next.DeltaWords(), u.budget)
		}

		// A batch that changes nothing — ApplyBatch handed back its
		// receiver (every op was a no-op against the overlay), or the
		// batch cancelled out over the bare base — is not swapped,
		// logged, or generation-bumped, so cached results survive it.
		// A compaction requested alongside still runs. On a staged tail
		// that is not yet published, though, ops still ride the chain
		// (their 200 must wait until what they sit on is durable), and a
		// compaction publishes the flushed chain before folding it.
		noop = next == snap || (base == nil && next.DeltaWords() == 0)
		if tail != nil && (len(ops) > 0 || compact) {
			noop = false
		}

		if ws == nil || len(ops) == 0 || noop {
			break
		}
		var after *wal.Pending
		if tail != nil {
			after = tail.p
		}
		log = u.logOf(ws)
		pend, err = u.walStage(ws, d, log, ops, after)
		if err == nil {
			break
		}
		if errors.Is(err, wal.ErrStaleChain) && attempt == 0 {
			u.dropFailed(d, nil)
			continue
		}
		h.Release()
		return nil, err
	}

	res := &updateResult{vertices: next.NumVertices(), edges: next.NumEdges()}
	res.deltaWords = next.DeltaWords()
	res.arcsAdded, res.arcsDeleted = next.DeltaArcs()
	applied := func() {
		if len(ops) > 0 {
			u.batches.Add(1)
			u.opsApplied.Add(int64(len(ops)))
		}
	}

	if noop && !compact {
		if cur != nil {
			res.generation = cur.gen
		} else {
			res.generation = h.Generation()
		}
		h.Release()
		applied()
		return res, nil
	}

	var own *stagedBatch
	if pend != nil && !compact {
		// Open the commit window: append our entry as the chain's tail so
		// the next writer can build on it, release the dataset, and wait
		// out the barrier.
		own = &stagedBatch{snap: next, ds: h.Dataset(), log: log, p: pend}
		u.mu.Lock()
		d.staged = append(d.staged, own)
		u.mu.Unlock()
		d.mu.Unlock()
		err := u.walCommit(ws, name, log, pend)
		if u.afterCommit != nil {
			u.afterCommit(err)
		}
		d.mu.Lock()
		if err != nil {
			u.dropFailed(d, own)
			h.Release()
			return nil, err
		}
		u.mu.Lock()
		closed := u.closed
		if closed {
			d.staged = nil // close() may have run before we staged
		}
		superseded, gen := !slices.Contains(d.staged, own), d.gen
		u.mu.Unlock()
		if closed {
			// close() won the relock race. The batch is durable and will
			// replay on restart, but nothing may repopulate the record now.
			h.Release()
			return nil, errShuttingDown
		}
		if superseded {
			// A later batch built on ours published (or a compaction
			// folded the chain) while we waited: our ops are in that
			// state, so our publish already happened.
			res.generation = gen
			h.Release()
			applied()
			return res, nil
		}
	} else if pend != nil {
		// Compacting batch: it must be durable before the fold, and the
		// whole request stays serialized under the writer mutex.
		if err := u.walCommit(ws, name, log, pend); err != nil {
			h.Release()
			return nil, err
		}
	}

	if noop {
		res.generation = h.Generation()
		h.Release()
	} else {
		res.generation = u.catalog.cache.Bump(d.path)
		if minGen > res.generation {
			res.generation = u.catalog.cache.BumpTo(d.path, minGen)
		}
		var nv *snapVersion
		if next.DeltaWords() != 0 {
			nv = &snapVersion{snap: next, gen: res.generation, ds: h.Dataset(), h: h, refs: 1}
		} else {
			// The batch cancelled the overlay out: back to the plain base
			// at the bumped generation.
			h.Release()
		}
		u.mu.Lock()
		if u.closed {
			// close() tore the records down between our closed check and
			// this swap; installing nv now would leak its base pin past
			// shutdown.
			d.staged = nil
			u.mu.Unlock()
			if nv != nil {
				h.Release()
			}
			return nil, errShuttingDown
		}
		// next includes every entry up to our own — the whole chain when
		// we built on its tail under the lock.
		n := len(d.staged)
		if own != nil {
			n = slices.Index(d.staged, own) + 1
		}
		clear(d.staged[:n])
		d.staged = d.staged[n:]
		old := d.version
		d.version, d.gen = nv, res.generation
		if nv == nil {
			d.disarmed = false // no overlay: see retire
		}
		u.mu.Unlock()
		if old != nil {
			u.unref(old)
		}
	}
	applied()

	compacted := false
	if compact {
		if err := u.compactLocked(d, ws, next, res); err != nil {
			// The batch itself is durable and published; only the fold
			// failed. Report it in-band (200 with compact_error) — what
			// the client sees is exactly the state crash recovery would
			// rebuild, and a retried compact picks up from here.
			res.compactErr = err
			return res, nil
		}
		compacted = true
	} else if u.autoHigh > 0 && res.deltaWords > 0 {
		compacted = u.maybeAutoCompact(d, ws, next, res)
		res.autoCompacted = compacted
	}
	if compacted {
		res.compacted = true
		if minGen > res.generation {
			res.generation = u.catalog.cache.BumpTo(d.path, minGen)
		}
		res.deltaWords = 0
		res.arcsAdded, res.arcsDeleted = 0, 0
		// A superseded writer waking now reports the generation readers see.
		u.mu.Lock()
		d.gen = res.generation
		u.mu.Unlock()
	}
	return res, nil
}

// maybeAutoCompact re-prices the just-published overlay's traversal
// overhead and folds it into the base when the hysteresis band says so,
// reporting whether it did. Caller holds d.mu and has published next (so
// a compaction failure leaves exactly the state an explicit compact
// failure would: a durable, consistent overlay). It waits for an empty
// staged chain: a fold must not run under a commit window in flight. The
// batch itself never fails on the auto path — its overlay is already
// live.
func (u *updates) maybeAutoCompact(d *dataset, ws *walState, next *sage.Snapshot, res *updateResult) bool {
	u.mu.Lock()
	inFlight := len(d.staged) > 0
	u.mu.Unlock()
	if inFlight || !u.shouldAutoCompact(d, u.overlayCost(next)) {
		return false
	}
	if err := u.compactLocked(d, ws, next, res); err != nil {
		// Stay disarmed: a failing compaction is retried at the next
		// crossing of the band, not on every batch.
		u.autoCompactErrors.Add(1)
		return false
	}
	u.autoCompactions.Add(1)
	return true
}

// shouldAutoCompact is the hysteresis decision: fire only when armed and
// the overhead reaches the high-water mark, then stay disarmed until the
// overhead falls below the low-water mark (half the threshold). Repeated
// batches hovering at the threshold therefore trigger exactly one
// compaction — the folded overlay restarts near zero, re-arming the
// trigger naturally — and a failed compaction is not retried per batch.
func (u *updates) shouldAutoCompact(d *dataset, overhead int64) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case overhead < u.autoLow:
		d.disarmed = false
	case !d.disarmed && overhead >= u.autoHigh:
		d.disarmed = true
		return true
	}
	return false
}

// compactLocked folds next's merged view into a rewritten container
// (atomic temp-file rename through Create), swaps readers onto the new
// generation, and retires the WAL chain whose records were folded in.
// Caller holds d.mu with an empty staged chain; next's overlay state has
// already been published (or is empty), so a failure here leaves a
// consistent, durable overlay behind.
func (u *updates) compactLocked(d *dataset, ws *walState, next *sage.Snapshot, res *updateResult) error {
	if err := next.Compact(d.path); err != nil {
		return fmt.Errorf("compacting %q: %w", d.name, err)
	}
	// The new container is durably in place. Swap readers over (in-flight
	// runs finish on the detached old mapping) and retire the folded log.
	u.catalog.cache.Invalidate(d.path)
	u.retire(d)
	u.retireSegment(ws, d)
	// Reopen the compacted file now: a broken write surfaces here, and
	// the response carries the generation new requests will see.
	h2, err := u.catalog.acquire(d)
	if err != nil {
		return fmt.Errorf("reopening compacted %q: %w", d.name, err)
	}
	res.generation = h2.Generation()
	h2.Release()
	u.compactions.Add(1)
	return nil
}

// retire removes d's current version (if any), dropping the record's
// reference.
func (u *updates) retire(d *dataset) {
	u.mu.Lock()
	old := d.version
	d.version = nil
	// No overlay left means its traversal overhead is genuinely zero, so
	// the auto-compaction trigger re-arms (a *failed* compaction leaves
	// the overlay — and the disarmed state — in place).
	d.disarmed = false
	u.mu.Unlock()
	if old != nil {
		u.unref(old)
	}
}

// close retires every version (in-flight pins still defer the base
// release until their runs end), empties every staged chain and closes
// every WAL log, flushing buffered records per policy — a writer
// mid-commit-window has its pending resolved (or failed) by Close, and
// the closed flag keeps any racing write or recovery from reopening a
// log or republishing state afterwards. The first close error is
// returned: Close performs the final flush, so a failure here can mean a
// logged batch never reached the disk.
func (u *updates) close() error {
	datasets := u.catalog.all()
	var logs []*wal.Log
	u.mu.Lock()
	u.closed = true
	for _, d := range datasets {
		if d.wal != nil && d.wal.log != nil {
			logs = append(logs, d.wal.log)
			d.wal.log = nil
		}
		d.wal, d.staged = nil, nil
	}
	u.mu.Unlock()
	for _, d := range datasets {
		u.retire(d)
	}
	var first error
	for _, l := range logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// snapshot reports the update counters for /metrics.
func (u *updates) snapshot() updateStats {
	perDataset, words := u.deltaStats()
	return updateStats{
		DeltaBudgetWords:    u.budget,
		CostModel:           u.model.ModelName,
		AutoCompactCost:     u.autoHigh,
		AutoCompactLow:      u.autoLow,
		DatasetsWithDelta:   len(perDataset),
		DeltaWords:          words,
		Batches:             u.batches.Load(),
		OpsApplied:          u.opsApplied.Load(),
		Compactions:         u.compactions.Load(),
		AutoCompactions:     u.autoCompactions.Load(),
		AutoCompactErrors:   u.autoCompactErrors.Load(),
		RejectedDeltaBudget: u.rejectedDelta.Load(),
		PerDataset:          perDataset,
	}
}

// updateStats is the /metrics view of the update layer.
type updateStats struct {
	DeltaBudgetWords    int64                        `json:"delta_budget_words"`
	CostModel           string                       `json:"cost_model"`
	AutoCompactCost     int64                        `json:"auto_compact_cost"`
	AutoCompactLow      int64                        `json:"auto_compact_low,omitempty"`
	DatasetsWithDelta   int                          `json:"datasets_with_delta"`
	DeltaWords          int64                        `json:"delta_words"`
	Batches             int64                        `json:"batches"`
	OpsApplied          int64                        `json:"ops_applied"`
	Compactions         int64                        `json:"compactions"`
	AutoCompactions     int64                        `json:"auto_compactions"`
	AutoCompactErrors   int64                        `json:"auto_compact_errors,omitempty"`
	RejectedDeltaBudget int64                        `json:"rejected_delta_budget"`
	PerDataset          map[string]datasetDeltaStats `json:"per_dataset,omitempty"`
}

// datasetDeltaStats is one dataset's overlay footprint in /metrics: the
// raw delta words and arcs alongside the model-priced traversal overhead
// that auto-compaction acts on.
type datasetDeltaStats struct {
	DeltaWords           int64  `json:"delta_words"`
	DeltaArcsAdded       uint64 `json:"delta_arcs_added"`
	DeltaArcsDeleted     uint64 `json:"delta_arcs_deleted"`
	OverlayCostPredicted int64  `json:"overlay_cost_predicted"`
	AutoCompactArmed     bool   `json:"auto_compact_armed"`
}

// pinForRun resolves what a run on name should execute against: the
// current snapshot version (pinned for the run's duration) when the
// dataset has an overlay, else the plain cached dataset. The first pin
// of a dataset replays its surviving WAL records, so reads observe
// recovered batches even before Recover has walked the catalog.
func (s *Server) pinForRun(name string) (g *sage.Graph, gen uint64, release func(), err error) {
	d, err := s.catalog.get(name)
	if err != nil {
		return nil, 0, nil, err
	}
	s.updates.ensureRecovered(d)
	if v := s.updates.pin(d); v != nil {
		return v.snap.Graph(), v.gen, func() { s.updates.unref(v) }, nil
	}
	h, err := s.catalog.acquire(d)
	if err != nil {
		return nil, 0, nil, err
	}
	return sage.GraphFromDataset(h.Dataset()), h.Generation(), h.Release, nil
}
