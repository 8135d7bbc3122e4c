package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage/colstore"
	"repro/internal/storage/rowstore"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// ConcurrencyMode selects the transaction mechanism.
type ConcurrencyMode int

// Concurrency modes: MVCC snapshot isolation (the tutorial's
// HANA/BLU/DBIM model) or strict two-phase locking (the classical
// baseline E4/E5 compare against).
const (
	ModeMVCC ConcurrencyMode = iota
	Mode2PL
)

// String names the mode.
func (m ConcurrencyMode) String() string {
	if m == Mode2PL {
		return "2PL"
	}
	return "MVCC"
}

// Errors returned by the engine.
var (
	ErrNoSuchTable  = errors.New("core: no such table")
	ErrTableExists  = errors.New("core: table already exists")
	ErrDuplicateKey = rowstore.ErrDuplicateKey
	ErrNotFound     = rowstore.ErrNotFound
)

// SyncMode re-exports the WAL durability mode for engine options.
type SyncMode = wal.SyncMode

// Durability modes (see wal.SyncMode).
const (
	SyncGroup = wal.SyncGroup
	SyncSync  = wal.SyncSync
	SyncAsync = wal.SyncAsync
	SyncEach  = wal.SyncEach
)

// Options configures an Engine.
type Options struct {
	// Mode selects MVCC (default) or 2PL.
	Mode ConcurrencyMode
	// LockTimeout bounds 2PL lock waits (default 100ms).
	LockTimeout time.Duration
	// Dir, when set, enables full durability: a segmented group-commit
	// WAL plus checkpoints live in this directory, and opening an
	// existing directory recovers the database (last checkpoint + WAL
	// tail).
	Dir string
	// Sync selects the commit durability mode for Dir-based logging
	// (default SyncGroup: commits wait for a batched fsync).
	Sync SyncMode
	// GroupCommitWindow is the accumulation window for SyncGroup
	// (default 200µs).
	GroupCommitWindow time.Duration
	// WALSegmentSize is the rotation threshold for Dir-based WAL
	// segments (default 16 MiB).
	WALSegmentSize int64
	// FS overrides the filesystem beneath Dir-based durability (fault
	// injection in tests). Nil means the real filesystem.
	FS wal.FS
	// MergeThreshold is the delta live-row count that triggers an
	// automatic merge when AutoMerge runs (default 64k rows).
	MergeThreshold int
	// Parallelism is the worker count for analytic segment scans and
	// the exec-layer parallel pipelines above them. Values <= 0 default
	// to runtime.GOMAXPROCS(0); 1 keeps scans single-threaded. When the
	// effective value is > 1, column-store scans run morsel-parallel
	// and the batches delivered to Scan callbacks are pooled: valid
	// only until the callback returns (retainers must Copy them).
	Parallelism int
	// DisableJoinReorder forces the SQL planner to join tables in
	// syntactic order instead of the statistics-driven greedy order —
	// the A/B switch for plan-parity testing and benchmarks.
	DisableJoinReorder bool
}

// Engine is the oadms database engine.
type Engine struct {
	oracle *txn.Oracle
	locks  *txn.LockManager
	opts   Options

	mu     sync.RWMutex
	tables map[string]*Table
	// creating reserves table names between the duplicate check and the
	// publish in CreateTable, whose durability wait runs outside e.mu.
	creating map[string]bool

	// Dir-based durability state. log is the segmented group-commit WAL;
	// fs the (injectable) filesystem beneath it. commitMu serializes LSN
	// assignment with commit-timestamp allocation so log order, commit
	// order, and visibility order agree; lastCommitLSN (under commitMu)
	// is the highest LSN covered by a committed transaction, which is
	// what a checkpoint can safely truncate below. recovering suspends
	// redo logging while a recovery replays records into the engine.
	log           *wal.Log
	fs            wal.FS
	dir           string
	commitMu      sync.Mutex
	lastCommitLSN uint64
	ckptMu        sync.Mutex
	ckptSeq       uint64
	recovering    atomic.Bool

	// fatal is the sticky durability-failure error. It is set when a
	// transaction became visible in memory but its log write failed:
	// that state cannot be unwound and will not survive a restart, so
	// rather than keep serving it, the engine refuses new work (table
	// lookups — and therefore reads, writes, and scans — plus commits
	// and DDL all fail with ErrPoisoned wrapping the cause).
	fatalMu sync.Mutex
	fatal   error

	// mergeMu serializes merges across tables (prevents cross-table
	// writer/merge cycles).
	mergeMu sync.Mutex

	// closeOnce makes Close idempotent; daemons tracks background
	// goroutines (auto-merge) that Close stops and awaits.
	closeOnce  sync.Once
	closeErr   error
	daemonMu   sync.Mutex
	daemonStop []chan struct{}
	daemonWG   sync.WaitGroup
}

// NewEngine creates an engine.
func NewEngine(opts Options) (*Engine, error) {
	if opts.LockTimeout <= 0 {
		opts.LockTimeout = 100 * time.Millisecond
	}
	if opts.MergeThreshold <= 0 {
		opts.MergeThreshold = 64 << 10
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		oracle:   txn.NewOracle(),
		locks:    txn.NewLockManager(opts.LockTimeout),
		opts:     opts,
		tables:   make(map[string]*Table),
		creating: make(map[string]bool),
	}
	if opts.Dir != "" {
		if err := e.openDir(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Close releases engine resources: it stops and awaits any background
// auto-merge daemon, then closes the WAL. Close is idempotent — second
// and later calls return the first call's error without re-closing
// anything.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.daemonMu.Lock()
		for _, stop := range e.daemonStop {
			close(stop)
		}
		e.daemonStop = nil
		e.daemonMu.Unlock()
		e.daemonWG.Wait()
		if e.log != nil {
			e.closeErr = e.log.Close()
		}
	})
	return e.closeErr
}

// ErrPoisoned wraps every error returned by an engine that suffered a
// durability failure after a commit became visible (see Tx.Commit).
var ErrPoisoned = errors.New("core: engine poisoned by durability failure")

// poison records the first durability failure that left in-memory state
// ahead of the durable log. Later operations fail with ErrPoisoned.
func (e *Engine) poison(err error) {
	e.fatalMu.Lock()
	if e.fatal == nil {
		e.fatal = fmt.Errorf("%w: %v", ErrPoisoned, err)
	}
	e.fatalMu.Unlock()
}

// fatalErr returns the sticky poison error, if any.
func (e *Engine) fatalErr() error {
	e.fatalMu.Lock()
	defer e.fatalMu.Unlock()
	return e.fatal
}

// Oracle exposes the timestamp oracle.
func (e *Engine) Oracle() *txn.Oracle { return e.oracle }

// Mode returns the concurrency mode.
func (e *Engine) Mode() ConcurrencyMode { return e.opts.Mode }

// Parallelism returns the effective analytic worker count (Options
// normalized: <= 0 resolved to GOMAXPROCS at engine creation). The SQL
// planner uses it to size parallel pipelines.
func (e *Engine) Parallelism() int { return e.opts.Parallelism }

// JoinReorder reports whether the SQL planner may reorder joins using
// live statistics (Options.DisableJoinReorder inverts it).
func (e *Engine) JoinReorder() bool { return !e.opts.DisableJoinReorder }

// CreateTable registers a new dual-format table. With Dir-based
// durability the catalog change is logged (and made durable per the
// sync mode) before the table becomes visible, so recovery never needs
// pre-created tables. The catalog lock is NOT held across the group
// commit fsync wait — the name is reserved, the lock released while the
// log record becomes durable, and the table published under a short
// re-lock — so table lookups (and therefore query planning) never block
// behind DDL durability.
func (e *Engine) CreateTable(name string, schema *types.Schema) (*Table, error) {
	if err := e.fatalErr(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if _, ok := e.tables[name]; ok || e.creating[name] {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	e.creating[name] = true
	e.mu.Unlock()
	publish := func(t *Table) {
		e.mu.Lock()
		delete(e.creating, name)
		if t != nil {
			e.tables[name] = t
		}
		e.mu.Unlock()
	}
	t, err := newTable(name, schema)
	if err != nil {
		publish(nil)
		return nil, err
	}
	if e.log != nil && !e.recovering.Load() {
		rec := wal.Record{Kind: wal.KindCreateTable, Table: name, Row: wal.SchemaToRow(schema)}
		e.commitMu.Lock()
		lsn, err := e.log.Enqueue(rec)
		if err == nil && lsn > e.lastCommitLSN {
			e.lastCommitLSN = lsn
		}
		e.commitMu.Unlock()
		if err == nil {
			err = e.log.WaitAcked(lsn)
		}
		if err != nil {
			publish(nil)
			return nil, fmt.Errorf("core: create table %s: %w", name, err)
		}
	}
	publish(t)
	return t, nil
}

// Table looks up a table. Every data operation (reads included) passes
// through here, so a poisoned engine fails them all — its in-memory
// state is ahead of the durable log and must not be served.
func (e *Engine) Table(name string) (*Table, error) {
	if err := e.fatalErr(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// Tables returns all table names, sorted.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ErrRecoverUnknownTable is returned (wrapped in a *RecoverError) when
// a WAL record references a table the engine does not have. The log
// records CREATE TABLE ahead of any data for the table, so only a
// damaged or foreign log directory hits this; recovery fails rather
// than silently skipping data.
var ErrRecoverUnknownTable = errors.New("core: recover: unknown table")

// RecoverError reports where a recovery replay failed.
type RecoverError struct {
	LSN   uint64
	TxnID uint64
	Table string
	Err   error
}

// Error formats the failure with its log position.
func (e *RecoverError) Error() string {
	return fmt.Sprintf("core: recover: lsn %d txn %d table %q: %v", e.LSN, e.TxnID, e.Table, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *RecoverError) Unwrap() error { return e.Err }

// applyRecovered routes one replayed WAL record into the per-TxnID
// transaction map: data records accumulate in their transaction, COMMIT
// records commit it.
func (e *Engine) applyRecovered(txs map[uint64]*Tx, r wal.Record) error {
	fail := func(err error) error {
		return &RecoverError{LSN: r.LSN, TxnID: r.TxnID, Table: r.Table, Err: err}
	}
	if r.Kind == wal.KindCommit {
		tx, ok := txs[r.TxnID]
		if !ok {
			// A committed transaction with no surviving data records
			// (e.g. all below the checkpoint) has nothing to re-apply.
			return nil
		}
		delete(txs, r.TxnID)
		if _, err := tx.Commit(); err != nil {
			return fail(err)
		}
		return nil
	}
	if r.Kind == wal.KindCreateTable {
		schema, err := wal.SchemaFromRow(r.Row)
		if err != nil {
			return fail(err)
		}
		if _, err := e.CreateTable(r.Table, schema); err != nil {
			if errors.Is(err, ErrTableExists) {
				// Already present via checkpoint snapshot: idempotent.
				return nil
			}
			return fail(err)
		}
		return nil
	}
	tx, ok := txs[r.TxnID]
	if !ok {
		tx = e.Begin()
		txs[r.TxnID] = tx
	}
	var err error
	switch r.Kind {
	case wal.KindInsert:
		err = tx.Insert(r.Table, r.Row)
	case wal.KindUpdate:
		tbl, terr := e.Table(r.Table)
		if terr != nil {
			return fail(fmt.Errorf("%w: %s", ErrRecoverUnknownTable, r.Table))
		}
		err = tx.Update(r.Table, tbl.schema.KeyOf(r.Row), r.Row)
	case wal.KindDelete:
		err = tx.Delete(r.Table, r.Row)
	default:
		return nil
	}
	if errors.Is(err, ErrNoSuchTable) {
		return fail(fmt.Errorf("%w: %s", ErrRecoverUnknownTable, r.Table))
	}
	if err != nil {
		return fail(err)
	}
	return nil
}

// Tx is an engine-level transaction handle.
type Tx struct {
	engine *Engine
	inner  *txn.Txn
	// wrote tracks tables this transaction has written (merge-gate
	// bypass and activeWriters bookkeeping).
	wrote map[*Table]bool
	// walRecs buffers redo records until commit.
	walRecs []wal.Record
}

// Begin starts a transaction.
func (e *Engine) Begin() *Tx {
	return &Tx{engine: e, inner: e.oracle.Begin(), wrote: make(map[*Table]bool)}
}

// ReadTS returns the transaction's snapshot timestamp.
func (t *Tx) ReadTS() uint64 { return t.inner.ReadTS }

// ID returns the transaction id.
func (t *Tx) ID() uint64 { return t.inner.ID }

// Inner exposes the low-level transaction.
func (t *Tx) Inner() *txn.Txn { return t.inner }

// Commit commits the transaction, appending WAL records first. With
// Dir-based durability the commit group (redo records + COMMIT marker)
// is enqueued to the group-commit log and, in a durable sync mode, the
// call returns only after the group's fsync completes. LSN assignment
// and commit-timestamp allocation happen under one lock so log order,
// commit order, and visibility order agree; the fsync wait happens
// outside it so concurrent committers batch into shared syncs.
//
// A log failure after the in-memory commit cannot be unwound — the
// change is already visible to other transactions but will not survive
// a restart. Rather than keep serving state the caller was told failed,
// the engine is poisoned: Commit returns the durability error and every
// later operation (reads included) fails with ErrPoisoned until the
// process restarts and recovers from the durable prefix.
func (t *Tx) Commit() (uint64, error) {
	e := t.engine
	if err := e.fatalErr(); err != nil {
		_ = t.inner.Abort()
		return 0, err
	}
	if e.log != nil && len(t.walRecs) > 0 {
		recs := make([]wal.Record, 0, len(t.walRecs)+1)
		recs = append(recs, t.walRecs...)
		recs = append(recs, wal.Record{TxnID: t.inner.ID, Kind: wal.KindCommit})
		e.commitMu.Lock()
		ts, err := t.inner.Commit()
		if err != nil {
			e.commitMu.Unlock()
			return 0, err
		}
		// Enqueue after the in-memory commit (still under commitMu, so
		// LSN order matches commit-timestamp order): the log can never
		// hold a COMMIT marker for a transaction that did not commit,
		// and a crash before the group reaches disk simply loses an
		// unacknowledged commit.
		lsn, err := e.log.Enqueue(recs...)
		if err != nil {
			e.commitMu.Unlock()
			e.poison(err)
			return ts, fmt.Errorf("core: commit not durable: %w", err)
		}
		e.lastCommitLSN = lsn
		e.commitMu.Unlock()
		if err := e.log.WaitAcked(lsn); err != nil {
			e.poison(err)
			return ts, fmt.Errorf("core: commit not durable: %w", err)
		}
		return ts, nil
	}
	return t.inner.Commit()
}

// Abort rolls back the transaction.
func (t *Tx) Abort() error { return t.inner.Abort() }

// enterWrite acquires the merge gate for tbl (first write only) and
// registers activeWriters bookkeeping. Returns a release function for
// the op-scoped part (none needed — gate is held until txn end for
// first-writers via hooks).
func (t *Tx) enterWrite(tbl *Table) {
	if t.wrote[tbl] {
		return
	}
	// Block while a merge is running on this table. The activeWriters
	// increment happens under the gate so the merge, after taking the
	// gate exclusively, sees either the increment or a blocked writer.
	tbl.gate.RLock()
	t.wrote[tbl] = true
	tbl.activeWriters.Add(1)
	tbl.gate.RUnlock()
	t.inner.OnCommit(func(uint64) { tbl.activeWriters.Add(-1) })
	t.inner.OnAbort(func() { tbl.activeWriters.Add(-1) })
}

// lock2PLWrite acquires the 2PL locks for writing key in tbl: intention
// exclusive on the table (conflicts with table-scan shared locks) and
// exclusive on the key. No-op in MVCC mode.
func (t *Tx) lock2PLWrite(tbl *Table, key types.Row) error {
	if t.engine.opts.Mode != Mode2PL {
		return nil
	}
	if err := t.engine.locks.LockIntentionExclusive(t.inner, tbl.name, tableLockKey); err != nil {
		return err
	}
	return t.engine.locks.LockExclusive(t.inner, tbl.name, key)
}

// logWrite buffers a WAL record if logging is enabled. Recovery
// replays suspend logging: re-appending replayed records would grow
// the live log on every restart.
func (t *Tx) logWrite(kind wal.Kind, table string, row types.Row) {
	if t.engine.log == nil || t.engine.recovering.Load() {
		return
	}
	t.walRecs = append(t.walRecs, wal.Record{TxnID: t.inner.ID, Kind: kind, Table: table, Row: row.Clone()})
}

// Insert adds a row to the named table.
func (t *Tx) Insert(table string, row types.Row) error {
	tbl, err := t.engine.Table(table)
	if err != nil {
		return err
	}
	return t.insertTable(tbl, row)
}

func (t *Tx) insertTable(tbl *Table, row types.Row) error {
	if err := tbl.schema.Validate(row); err != nil {
		return err
	}
	t.enterWrite(tbl)
	if err := t.lock2PLWrite(tbl, tbl.schema.KeyOf(row)); err != nil {
		return err
	}
	key := tbl.schema.KeyOf(row)
	tbl.storageMu.RLock()
	blocked := tbl.cold.FindBlocking(key, t.inner.ReadTS, t.inner.ID)
	tbl.storageMu.RUnlock()
	if blocked {
		return ErrDuplicateKey
	}
	if err := tbl.delta.Insert(t.inner, row); err != nil {
		return err
	}
	t.maintainIndexes(tbl, row)
	t.logWrite(wal.KindInsert, tbl.name, row)
	return nil
}

// Update replaces the row at key in the named table.
func (t *Tx) Update(table string, key types.Row, newRow types.Row) error {
	tbl, err := t.engine.Table(table)
	if err != nil {
		return err
	}
	if err := tbl.schema.Validate(newRow); err != nil {
		return err
	}
	if types.CompareKeys(tbl.schema.KeyOf(newRow), key) != 0 {
		return fmt.Errorf("core: update must preserve the primary key")
	}
	t.enterWrite(tbl)
	if err := t.lock2PLWrite(tbl, key); err != nil {
		return err
	}
	// Try the delta first; fall back to invalidating the merged copy.
	err = tbl.delta.Update(t.inner, key, newRow)
	if errors.Is(err, rowstore.ErrNotFound) {
		tbl.storageMu.RLock()
		found, merr := tbl.cold.MarkDeleted(t.inner, key)
		tbl.storageMu.RUnlock()
		if merr != nil {
			return merr
		}
		if !found {
			return ErrNotFound
		}
		// Install the new version in the delta (fresh chain).
		err = tbl.delta.Insert(t.inner, newRow)
	}
	if err != nil {
		return err
	}
	t.maintainIndexes(tbl, newRow)
	t.logWrite(wal.KindUpdate, tbl.name, newRow)
	return nil
}

// Delete removes the row at key in the named table.
func (t *Tx) Delete(table string, key types.Row) error {
	tbl, err := t.engine.Table(table)
	if err != nil {
		return err
	}
	t.enterWrite(tbl)
	if err := t.lock2PLWrite(tbl, key); err != nil {
		return err
	}
	err = tbl.delta.Delete(t.inner, key)
	if errors.Is(err, rowstore.ErrNotFound) {
		tbl.storageMu.RLock()
		found, merr := tbl.cold.MarkDeleted(t.inner, key)
		tbl.storageMu.RUnlock()
		if merr != nil {
			return merr
		}
		if !found {
			return ErrNotFound
		}
		err = nil
	}
	if err != nil {
		return err
	}
	t.logWrite(wal.KindDelete, tbl.name, key)
	return nil
}

// Get returns the visible row at key.
func (t *Tx) Get(table string, key types.Row) (types.Row, bool, error) {
	tbl, err := t.engine.Table(table)
	if err != nil {
		return nil, false, err
	}
	if t.engine.opts.Mode == Mode2PL {
		if err := t.engine.locks.LockShared(t.inner, tbl.name, key); err != nil {
			return nil, false, err
		}
	}
	tbl.storageMu.RLock()
	defer tbl.storageMu.RUnlock()
	if row, ok := tbl.delta.GetAt(key, t.inner.ReadTS, t.inner.ID); ok {
		return row, true, nil
	}
	if seg, idx, ok := tbl.cold.FindVisible(key, t.inner.ReadTS, t.inner.ID); ok {
		return seg.Row(idx), true, nil
	}
	return nil, false, nil
}

// ScanCtx streams every visible row of the table — column segments
// (morsel-parallel at the engine's configured parallelism), then the
// delta — under one consistent snapshot. fn observes one batch at a
// time: ScanCtx funnels the concurrent morsel workers through a mutex,
// so fn needs no synchronization of its own. Every batch is transient,
// valid only until fn returns; retainers must Batch.Copy it.
//
// When ctx is cancelled the scan stops within one batch/zone boundary —
// morsel workers observe ctx.Done() between zones and exit before
// ScanCtx returns — and the error is ctx.Err(). A nil ctx never
// cancels.
//
// In 2PL mode the scan takes a shared lock on the whole table (strict
// S2PL at coarse granularity — the classical behaviour the tutorial's
// multiversioned systems eliminate): analytic readers block behind
// writers and vice versa, which is exactly what E4/E5 measure. Locks
// held by the transaction are NOT released here; abort or commit the
// transaction to release them.
func (t *Tx) ScanCtx(ctx context.Context, table string, proj []int, preds []colstore.Predicate, fn func(b *types.Batch) bool) (colstore.ScanStats, error) {
	tbl, err := t.engine.Table(table)
	if err != nil {
		return colstore.ScanStats{}, err
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var (
		mu      sync.Mutex
		stopped bool
	)
	stats, err := t.scan(tbl, proj, preds, t.engine.opts.Parallelism, done, func(_ int, b *types.Batch) bool {
		mu.Lock()
		defer mu.Unlock()
		if stopped || !fn(b) {
			stopped = true
			return false
		}
		return true
	})
	if err == nil && ctx != nil {
		err = ctx.Err()
	}
	return stats, err
}

// scan takes the 2PL table lock and runs scanTable at t's snapshot;
// workers <= 0 uses the engine's configured parallelism. It is shared by
// ScanCtx and both TableScan consumption modes.
func (t *Tx) scan(tbl *Table, proj []int, preds []colstore.Predicate, workers int, done <-chan struct{}, fn func(worker int, b *types.Batch) bool) (colstore.ScanStats, error) {
	if err := t.lockTableShared(tbl); err != nil {
		return colstore.ScanStats{}, err
	}
	if workers <= 0 {
		workers = t.engine.opts.Parallelism
	}
	return scanTable(tbl, t.inner.ReadTS, t.inner.ID, proj, preds, workers, done, fn), nil
}

// lockTableShared takes the 2PL table-granularity shared lock (no-op in
// MVCC mode).
func (t *Tx) lockTableShared(tbl *Table) error {
	if t.engine.opts.Mode != Mode2PL {
		return nil
	}
	return t.engine.locks.LockShared(t.inner, tbl.name, tableLockKey)
}

// tableLockKey is the pseudo-key used for table-granularity locks in
// 2PL mode.
var tableLockKey = types.Row{types.NewString("\x00table")}

// scanTable is the one scan driver: it unions the column store and the
// delta at one snapshot. Cold-store batches are delivered concurrently
// to fn with the producing worker's id (0..workers-1, no cross-worker
// funnel — see colstore.Segment.Scan), then the delta streams to worker
// 0 on the calling goroutine once the cold workers have joined. Every
// batch is transient: valid only until fn returns. fn returning false
// (any worker) stops the scan; done, when non-nil, cancels it between
// zones/batches.
func scanTable(tbl *Table, readTS, self uint64, proj []int, preds []colstore.Predicate, workers int, done <-chan struct{}, fn func(worker int, b *types.Batch) bool) colstore.ScanStats {
	tbl.storageMu.RLock()
	defer tbl.storageMu.RUnlock()
	if proj == nil {
		proj = make([]int, len(tbl.schema.Cols))
		for i := range proj {
			proj[i] = i
		}
	}
	var stopped atomic.Bool
	stats := tbl.cold.Scan(readTS, self, proj, preds, workers, done, func(w int, b *types.Batch) bool {
		if !fn(w, b) {
			stopped.Store(true)
			return false
		}
		return true
	})
	if !stopped.Load() && !colstore.IsDone(done) {
		scanDelta(tbl, readTS, self, proj, preds, done, &stats, func(b *types.Batch) bool {
			return fn(0, b)
		})
	}
	tbl.recordScan(stats)
	return stats
}

// deltaBatchSize is the batch granularity delta rows stream at.
const deltaBatchSize = 1024

// scanDelta streams the table's visible delta rows (primary-key order,
// batched) to fn, accumulating stats: every visible row examined counts
// in RowsScanned, those passing preds in RowsMatched. The batches come
// from a BatchPool and are reused across flushes — valid only until fn
// returns, like the cold workers' batches. The caller must hold
// tbl.storageMu.
func scanDelta(tbl *Table, readTS, self uint64, proj []int, preds []colstore.Predicate, done <-chan struct{}, stats *colstore.ScanStats, fn func(b *types.Batch) bool) {
	pool := types.NewBatchPool(projectSchema(tbl.schema, proj), deltaBatchSize)
	batch := pool.Get()
	flush := func() bool {
		if batch.Len() == 0 {
			return true
		}
		if colstore.IsDone(done) {
			return false
		}
		ok := fn(batch)
		pool.Put(batch)
		batch = pool.Get()
		return ok
	}
	tbl.delta.Scan(readTS, self, func(row types.Row) bool {
		stats.RowsScanned++
		if !matchesAll(row, preds) {
			return true
		}
		stats.RowsMatched++
		out := make(types.Row, len(proj))
		for i, ci := range proj {
			out[i] = row[ci]
		}
		batch.AppendRow(out)
		if batch.Len() >= deltaBatchSize {
			return flush()
		}
		return true
	})
	flush()
}

func projectSchema(s *types.Schema, proj []int) *types.Schema {
	cols := make([]types.Column, len(proj))
	for i, ci := range proj {
		cols[i] = s.Cols[ci]
	}
	return &types.Schema{Cols: cols}
}

func matchesAll(row types.Row, preds []colstore.Predicate) bool {
	for _, p := range preds {
		if !p.Matches(row[p.Col]) {
			return false
		}
	}
	return true
}
