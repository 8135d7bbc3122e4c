// Package txn implements the transaction machinery of the engine: a
// timestamp oracle and multi-version concurrency control with snapshot
// isolation (the DB2 BLU / HANA / DBIM model the tutorial describes).
// Snapshot isolation is the engine's only concurrency control: readers
// take no locks, and write-write conflicts are first-updater-wins
// (ErrConflict).
//
// Timestamp convention (Hekaton-style): the oracle hands out commit
// timestamps from a monotone counter. Transaction ids live in a disjoint
// high range (>= TxnBase) so a version's begin/end field can hold either
// a committed timestamp or the id of the uncommitted transaction that
// wrote it, distinguishable by magnitude.
package txn

import (
	"sync"
	"sync/atomic"
)

// TxnBase is the lower bound of the transaction-id range. Timestamps
// below TxnBase are committed commit-timestamps; values in
// [TxnBase, InfTS) are transaction ids of uncommitted writers.
const TxnBase uint64 = 1 << 62

// InfTS marks a version with no end: the latest live version.
const InfTS uint64 = 1<<64 - 1

// AbortedTS marks the begin field of a version created by an aborted
// transaction; it is never visible to anyone.
const AbortedTS uint64 = InfTS - 1

// IsCommittedTS reports whether ts is a committed commit-timestamp.
func IsCommittedTS(ts uint64) bool { return ts < TxnBase }

// Oracle issues read and commit timestamps and tracks active
// transactions so storage can compute a safe watermark (the oldest
// snapshot still in use), which gates delta-merge and version GC.
type Oracle struct {
	commitTS atomic.Uint64 // last published commit timestamp
	nextTxn  atomic.Uint64 // next transaction id (offset by TxnBase)

	// commitMu serializes commit publication: a committer picks the
	// next timestamp, stamps its versions, and only then publishes the
	// timestamp, so no snapshot can include a half-stamped commit.
	commitMu sync.Mutex

	mu     sync.Mutex
	active map[uint64]uint64 // txn id -> read timestamp
}

// NewOracle returns an oracle with the clock at 1.
func NewOracle() *Oracle {
	o := &Oracle{active: make(map[uint64]uint64)}
	o.commitTS.Store(1)
	return o
}

// Begin starts a transaction: it allocates an id, takes the current
// commit clock as the read timestamp (snapshot), and registers the
// transaction as active. The clock is read under mu so Watermark never
// runs between the read and the registration.
func (o *Oracle) Begin() *Txn {
	id := TxnBase + o.nextTxn.Add(1)
	o.mu.Lock()
	read := o.commitTS.Load()
	o.active[id] = read
	o.mu.Unlock()
	return &Txn{ID: id, ReadTS: read, oracle: o}
}

// Now returns the current commit clock (the snapshot a new reader would
// get).
func (o *Oracle) Now() uint64 { return o.commitTS.Load() }

// finish unregisters a transaction.
func (o *Oracle) finish(id uint64) {
	o.mu.Lock()
	delete(o.active, id)
	o.mu.Unlock()
}

// Watermark returns the oldest read timestamp among active transactions,
// or the current clock if none are active. Versions ended before the
// watermark are invisible to every present and future snapshot.
func (o *Oracle) Watermark() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	w := o.commitTS.Load()
	for _, read := range o.active {
		if read < w {
			w = read
		}
	}
	return w
}

// ActiveCount returns the number of in-flight transactions.
func (o *Oracle) ActiveCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.active)
}
