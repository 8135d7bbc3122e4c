// Package index provides the delta row store's primary-key index: a
// concurrent lock-free-style skip list (the MemSQL row-store index
// [26]).
package index

import (
	"sync/atomic"

	"repro/internal/types"
)

const maxLevel = 24

// SkipList is a concurrent ordered map from types.Row keys to *V. Inserts
// are lock-free (CAS-linked at every level, in the style MemSQL describes
// for its row store); deletes are logical — the engine layers MVCC
// version chains on top, so entries are never physically unlinked.
// Readers never block writers and vice versa.
type SkipList[V any] struct {
	head   *slNode[V]
	level  atomic.Int32
	length atomic.Int64
	seed   atomic.Uint64
}

type slNode[V any] struct {
	key  types.Row
	val  atomic.Pointer[V]
	next []atomic.Pointer[slNode[V]]
}

// NewSkipList returns an empty skip list.
func NewSkipList[V any]() *SkipList[V] {
	s := &SkipList[V]{head: &slNode[V]{next: make([]atomic.Pointer[slNode[V]], maxLevel)}}
	s.level.Store(1)
	s.seed.Store(0x9E3779B97F4A7C15)
	return s
}

// Len returns the number of distinct keys ever inserted.
func (s *SkipList[V]) Len() int { return int(s.length.Load()) }

// randLevel draws a geometric level using a lock-free xorshift generator.
func (s *SkipList[V]) randLevel() int {
	for {
		old := s.seed.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if s.seed.CompareAndSwap(old, x) {
			lvl := 1
			for x&3 == 3 && lvl < maxLevel { // p = 1/4
				lvl++
				x >>= 2
			}
			return lvl
		}
	}
}

// findPreds fills preds/succs with the nodes straddling key at each level.
// Returns the node with an equal key, if any.
func (s *SkipList[V]) findPreds(key types.Row, preds, succs []*slNode[V]) *slNode[V] {
	var found *slNode[V]
	pred := s.head
	for lvl := int(s.level.Load()) - 1; lvl >= 0; lvl-- {
		cur := pred.next[lvl].Load()
		for cur != nil && types.CompareKeys(cur.key, key) < 0 {
			pred = cur
			cur = pred.next[lvl].Load()
		}
		if found == nil && cur != nil && types.CompareKeys(cur.key, key) == 0 {
			found = cur
		}
		preds[lvl] = pred
		succs[lvl] = cur
	}
	return found
}

// Get returns the value for key, or nil if absent.
func (s *SkipList[V]) Get(key types.Row) *V {
	pred := s.head
	for lvl := int(s.level.Load()) - 1; lvl >= 0; lvl-- {
		cur := pred.next[lvl].Load()
		for cur != nil && types.CompareKeys(cur.key, key) < 0 {
			pred = cur
			cur = pred.next[lvl].Load()
		}
		if cur != nil && types.CompareKeys(cur.key, key) == 0 {
			return cur.val.Load()
		}
	}
	return nil
}

// GetEntry returns the entry handle for key, or nil if absent.
func (s *SkipList[V]) GetEntry(key types.Row) *Entry[V] {
	pred := s.head
	for lvl := int(s.level.Load()) - 1; lvl >= 0; lvl-- {
		cur := pred.next[lvl].Load()
		for cur != nil && types.CompareKeys(cur.key, key) < 0 {
			pred = cur
			cur = pred.next[lvl].Load()
		}
		if cur != nil && types.CompareKeys(cur.key, key) == 0 {
			return &Entry[V]{n: cur}
		}
	}
	return nil
}

// GetOrInsert returns the existing value for key, or atomically inserts
// val and returns it. loaded reports whether the key already existed.
// The returned pointer-to-pointer lets callers CAS the stored value.
func (s *SkipList[V]) GetOrInsert(key types.Row, val *V) (node *Entry[V], loaded bool) {
	var preds, succs [maxLevel]*slNode[V]
	for {
		if n := s.findPreds(key, preds[:], succs[:]); n != nil {
			return &Entry[V]{n: n}, true
		}
		topLevel := s.randLevel()
		// Raise the list level if needed.
		for {
			lvl := s.level.Load()
			if int(lvl) >= topLevel {
				break
			}
			if s.level.CompareAndSwap(lvl, int32(topLevel)) {
				for l := int(lvl); l < topLevel; l++ {
					preds[l] = s.head
					succs[l] = nil
				}
				break
			}
		}
		nn := &slNode[V]{key: key.Clone(), next: make([]atomic.Pointer[slNode[V]], topLevel)}
		nn.val.Store(val)
		for l := 0; l < topLevel; l++ {
			nn.next[l].Store(succs[l])
		}
		// Link bottom level first; this is the linearization point.
		if !preds[0].next[0].CompareAndSwap(succs[0], nn) {
			continue // raced; retry from scratch
		}
		s.length.Add(1)
		// Link upper levels best-effort; on a race, re-find and retry
		// that level.
		for l := 1; l < topLevel; l++ {
			for {
				if preds[l].next[l].CompareAndSwap(succs[l], nn) {
					break
				}
				s.findPreds(key, preds[:], succs[:])
				if succs[l] == nn {
					break // someone linked us (shouldn't happen) or found self
				}
				nn.next[l].Store(succs[l])
			}
		}
		return &Entry[V]{n: nn}, false
	}
}

// Entry is a handle to a skip-list slot, allowing atomic value updates.
type Entry[V any] struct{ n *slNode[V] }

// Key returns the entry's key.
func (e *Entry[V]) Key() types.Row { return e.n.key }

// Load returns the current value.
func (e *Entry[V]) Load() *V { return e.n.val.Load() }

// Store replaces the value.
func (e *Entry[V]) Store(v *V) { e.n.val.Store(v) }

// CompareAndSwap atomically replaces old with new.
func (e *Entry[V]) CompareAndSwap(old, new *V) bool {
	return e.n.val.CompareAndSwap(old, new)
}

// Seek positions at the first key >= from (or the first key if from is
// nil) and calls fn for each entry in key order until fn returns false.
// The *Entry passed to fn is reused across iterations — valid only for
// the duration of the callback; retainers must use GetEntry. This keeps
// full-list iteration (delta scans walk it on every analytic query)
// allocation-free.
func (s *SkipList[V]) Seek(from types.Row, fn func(key types.Row, e *Entry[V]) bool) {
	pred := s.head
	if from != nil {
		for lvl := int(s.level.Load()) - 1; lvl >= 0; lvl-- {
			cur := pred.next[lvl].Load()
			for cur != nil && types.CompareKeys(cur.key, from) < 0 {
				pred = cur
				cur = pred.next[lvl].Load()
			}
		}
	}
	var e Entry[V]
	for cur := pred.next[0].Load(); cur != nil; cur = cur.next[0].Load() {
		e.n = cur
		if !fn(cur.key, &e) {
			return
		}
	}
}

// Range iterates entries with from <= key < to (nil bounds are open).
func (s *SkipList[V]) Range(from, to types.Row, fn func(key types.Row, e *Entry[V]) bool) {
	s.Seek(from, func(key types.Row, e *Entry[V]) bool {
		if to != nil && types.CompareKeys(key, to) >= 0 {
			return false
		}
		return fn(key, e)
	})
}
