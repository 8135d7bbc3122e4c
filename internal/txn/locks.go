package txn

import (
	"errors"
	"sync"
	"time"

	"repro/internal/types"
)

// ErrLockTimeout reports that a 2PL lock could not be acquired in time;
// the caller should abort (timeout doubles as deadlock resolution).
var ErrLockTimeout = errors.New("txn: lock wait timeout (possible deadlock)")

// LockManager implements key-granularity strict two-phase locking — the
// "rows are great for transactions" baseline the tutorial contrasts with
// multiversioning. Readers take shared locks, writers exclusive locks;
// all locks are held to transaction end. Deadlocks are broken by a wait
// timeout.
type LockManager struct {
	mu      sync.Mutex
	locks   map[string]*keyLock
	Timeout time.Duration
}

type keyLock struct {
	cond    *sync.Cond
	readers int
	writer  uint64 // txn id holding exclusive, 0 if none
	// held maps reader txn ids to their share count (re-entrancy).
	held map[uint64]int
	// ix maps intention-exclusive holders (txn id -> count). IX is
	// compatible with IX, incompatible with S and X from other txns:
	// the classical hierarchical-locking compromise that lets row
	// writers coexist while table readers exclude them.
	ix map[uint64]int
}

// foreignIX reports whether any transaction other than id holds IX.
func (l *keyLock) foreignIX(id uint64) bool {
	for h := range l.ix {
		if h != id {
			return true
		}
	}
	return false
}

// foreignShares reports shared holds by transactions other than id.
func (l *keyLock) foreignShares(id uint64) int {
	return l.readers - l.held[id]
}

// NewLockManager returns a lock manager with the given wait timeout.
func NewLockManager(timeout time.Duration) *LockManager {
	return &LockManager{locks: make(map[string]*keyLock), Timeout: timeout}
}

func lockKey(table string, key types.Row) string {
	return table + "\x00" + key.String()
}

func (lm *LockManager) get(k string) *keyLock {
	if l, ok := lm.locks[k]; ok {
		return l
	}
	l := &keyLock{held: make(map[uint64]int), ix: make(map[uint64]int)}
	l.cond = sync.NewCond(&lm.mu)
	lm.locks[k] = l
	return l
}

// waitWithTimeout waits on cond until pred is true or the deadline
// passes; returns false on timeout. The caller must hold lm.mu.
func (lm *LockManager) waitWithTimeout(l *keyLock, pred func() bool) bool {
	deadline := time.Now().Add(lm.Timeout)
	for !pred() {
		if time.Now().After(deadline) {
			return false
		}
		// Wake the condition periodically so timeouts fire even without
		// a Broadcast (simple and robust; contention is on hot keys).
		// The wake-up takes lm.mu, which this goroutine holds until Wait
		// parks it, so the Broadcast cannot land before the Wait and be
		// lost.
		timer := time.AfterFunc(time.Millisecond, func() {
			lm.mu.Lock()
			l.cond.Broadcast()
			lm.mu.Unlock()
		})
		l.cond.Wait()
		timer.Stop()
	}
	return true
}

// LockShared acquires a read lock on (table, key) for t, registering the
// release with the transaction.
func (lm *LockManager) LockShared(t *Txn, table string, key types.Row) error {
	k := lockKey(table, key)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l := lm.get(k)
	if l.writer == t.ID || l.held[t.ID] > 0 {
		// Already hold exclusive or shared: re-entrant no-op upgrade
		// semantics (shared under own exclusive is subsumed).
		if l.writer != t.ID {
			l.held[t.ID]++
			l.readers++
			t.AddUnlocker(func() { lm.unlockShared(k, t.ID) })
		}
		return nil
	}
	ok := lm.waitWithTimeout(l, func() bool { return l.writer == 0 && !l.foreignIX(t.ID) })
	if !ok {
		return ErrLockTimeout
	}
	l.readers++
	l.held[t.ID]++
	t.AddUnlocker(func() { lm.unlockShared(k, t.ID) })
	return nil
}

// LockIntentionExclusive declares intent to take exclusive locks at a
// finer granularity under (table, key): compatible with other IX
// holders, incompatible with shared and exclusive holders.
func (lm *LockManager) LockIntentionExclusive(t *Txn, table string, key types.Row) error {
	k := lockKey(table, key)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l := lm.get(k)
	if l.writer == t.ID || l.ix[t.ID] > 0 {
		if l.ix[t.ID] > 0 {
			return nil // re-entrant
		}
	}
	ok := lm.waitWithTimeout(l, func() bool {
		return l.writer == 0 && l.foreignShares(t.ID) == 0
	})
	if !ok {
		return ErrLockTimeout
	}
	l.ix[t.ID]++
	t.AddUnlocker(func() { lm.unlockIX(k, t.ID) })
	return nil
}

func (lm *LockManager) unlockIX(k string, id uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l, ok := lm.locks[k]
	if !ok {
		return
	}
	if n := l.ix[id]; n > 1 {
		l.ix[id] = n - 1
	} else {
		delete(l.ix, id)
	}
	l.cond.Broadcast()
}

// LockExclusive acquires a write lock on (table, key) for t, upgrading a
// shared lock if t already holds one.
func (lm *LockManager) LockExclusive(t *Txn, table string, key types.Row) error {
	k := lockKey(table, key)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l := lm.get(k)
	if l.writer == t.ID {
		return nil // re-entrant
	}
	own := l.held[t.ID] // shares we hold ourselves (upgrade case)
	ok := lm.waitWithTimeout(l, func() bool {
		return l.writer == 0 && l.readers == own && !l.foreignIX(t.ID)
	})
	if !ok {
		return ErrLockTimeout
	}
	// Upgrade: drop our shared holds, take exclusive.
	if own > 0 {
		l.readers -= own
		delete(l.held, t.ID)
	}
	l.writer = t.ID
	t.AddUnlocker(func() { lm.unlockExclusive(k, t.ID) })
	return nil
}

func (lm *LockManager) unlockShared(k string, id uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l, ok := lm.locks[k]
	if !ok {
		return
	}
	if n := l.held[id]; n > 0 {
		l.held[id] = n - 1
		if l.held[id] == 0 {
			delete(l.held, id)
		}
		l.readers--
	}
	l.cond.Broadcast()
}

func (lm *LockManager) unlockExclusive(k string, id uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l, ok := lm.locks[k]
	if !ok {
		return
	}
	if l.writer == id {
		l.writer = 0
	}
	l.cond.Broadcast()
}
