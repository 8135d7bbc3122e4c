package txn

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Errors returned by transaction operations.
var (
	// ErrConflict reports a write-write conflict under snapshot
	// isolation (first-updater-wins).
	ErrConflict = errors.New("txn: write-write conflict")
	// ErrFinished reports use of a committed or aborted transaction.
	ErrFinished = errors.New("txn: transaction already finished")
)

// Status is the lifecycle state of a transaction.
type Status int32

// Transaction states.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int32(s))
	}
}

// Txn is a transaction under snapshot isolation. Reads see the snapshot
// at ReadTS plus the transaction's own writes; writes install versions
// stamped with ID, rewritten to the commit timestamp on commit.
//
// Storage layers register commit/abort hooks rather than the txn package
// knowing about storage: on Commit every onCommit hook runs with the
// freshly allocated commit timestamp; on Abort every onAbort hook runs.
type Txn struct {
	ID     uint64
	ReadTS uint64

	oracle   *Oracle
	status   atomic.Int32
	onCommit []func(commitTS uint64)
	onAbort  []func()
}

// Status returns the transaction state.
func (t *Txn) Status() Status { return Status(t.status.Load()) }

// OnCommit registers a hook to run with the commit timestamp. Hooks run
// under the oracle's commit mutex, which every commit takes: a hook must
// not block or commit another transaction.
func (t *Txn) OnCommit(fn func(commitTS uint64)) { t.onCommit = append(t.onCommit, fn) }

// OnAbort registers a hook to undo a provisional write.
func (t *Txn) OnAbort(fn func()) { t.onAbort = append(t.onAbort, fn) }

// Commit finalizes the transaction: it picks the next commit
// timestamp, stamps every provisional write, publishes the timestamp,
// and unregisters from the oracle. Publication happens
// after stamping, under the oracle's commit mutex, so a snapshot sees
// all of a commit's writes or none of them.
func (t *Txn) Commit() (uint64, error) {
	if !t.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitted)) {
		return 0, ErrFinished
	}
	o := t.oracle
	o.commitMu.Lock()
	ts := o.commitTS.Load() + 1
	for _, fn := range t.onCommit {
		fn(ts)
	}
	o.commitTS.Store(ts)
	o.commitMu.Unlock()
	o.finish(t.ID)
	return ts, nil
}

// Abort rolls back the transaction, undoing provisional writes.
func (t *Txn) Abort() error {
	if !t.status.CompareAndSwap(int32(StatusActive), int32(StatusAborted)) {
		return ErrFinished
	}
	// Undo in reverse order so later writes unwind first.
	for i := len(t.onAbort) - 1; i >= 0; i-- {
		t.onAbort[i]()
	}
	t.oracle.finish(t.ID)
	return nil
}

// VisibleBegin reports whether a version whose begin field is b is
// visible to a reader at snapshot readTS with transaction id self.
// A version is begin-visible if it was committed at or before the
// snapshot, or if the reader itself wrote it.
func VisibleBegin(b, readTS, self uint64) bool {
	if b == self {
		return true
	}
	return IsCommittedTS(b) && b <= readTS
}

// EndConceals reports whether a version whose end field is e is
// concealed (superseded/deleted) for a reader at snapshot readTS with
// transaction id self. The version is concealed if its end was committed
// at or before the snapshot, or if the reader itself ended it.
func EndConceals(e, readTS, self uint64) bool {
	if e == self {
		return true
	}
	return IsCommittedTS(e) && e <= readTS
}

// Visible combines both halves: a version (b, e) is visible iff its
// creation is visible and its end does not conceal it.
func Visible(b, e, readTS, self uint64) bool {
	return VisibleBegin(b, readTS, self) && !EndConceals(e, readTS, self)
}
