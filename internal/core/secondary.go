package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/types"
)

// SecondaryIndex is a non-unique secondary access path over one or more
// columns, mapping indexed values to primary keys. Entries are inserted
// eagerly and removed on abort; lookups re-validate every candidate
// primary key against the reader's MVCC snapshot, so stale entries
// (deleted or superseded rows) are filtered naturally and can be cleaned
// lazily.
type SecondaryIndex struct {
	Name string
	// Cols are the indexed column positions, in index order.
	Cols []int
	// Ordered selects a B+-tree (range-capable) index; otherwise a hash
	// index (point lookups only).
	Ordered bool

	mu    sync.Mutex
	btree *index.BTree
	// btreeRows maps a btree slot id to primary keys (B+-tree stores
	// one int64 per key, so duplicates chain through this table).
	btreeRows map[int64][]types.Row
	nextSlot  int64
	hash      *index.HashIndex
	hashPKs   map[int64]types.Row
	nextPK    int64
}

func newSecondaryIndex(name string, cols []int, ordered bool) *SecondaryIndex {
	si := &SecondaryIndex{Name: name, Cols: cols, Ordered: ordered}
	if ordered {
		si.btree = index.NewBTree()
		si.btreeRows = make(map[int64][]types.Row)
	} else {
		si.hash = index.NewHashIndex()
		si.hashPKs = make(map[int64]types.Row)
	}
	return si
}

// keyOf projects the indexed columns out of a row.
func (si *SecondaryIndex) keyOf(row types.Row) types.Row {
	k := make(types.Row, len(si.Cols))
	for i, c := range si.Cols {
		k[i] = row[c]
	}
	return k
}

// add registers pk under the index key derived from row.
func (si *SecondaryIndex) add(row types.Row, pk types.Row) (undo func()) {
	key := si.keyOf(row)
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.Ordered {
		slot, ok := si.btree.Get(key)
		if !ok {
			slot = si.nextSlot
			si.nextSlot++
			si.btree.Set(key, slot)
		}
		si.btreeRows[slot] = append(si.btreeRows[slot], pk.Clone())
		return func() {
			si.mu.Lock()
			defer si.mu.Unlock()
			pks := si.btreeRows[slot]
			for i, p := range pks {
				if types.CompareKeys(p, pk) == 0 {
					si.btreeRows[slot] = append(pks[:i], pks[i+1:]...)
					return
				}
			}
		}
	}
	id := si.nextPK
	si.nextPK++
	si.hashPKs[id] = pk.Clone()
	si.hash.Add(key, id)
	return func() {
		si.mu.Lock()
		defer si.mu.Unlock()
		si.hash.Remove(key, id)
		delete(si.hashPKs, id)
	}
}

// lookupEq returns candidate primary keys for an exact index key.
func (si *SecondaryIndex) lookupEq(key types.Row) []types.Row {
	si.mu.Lock()
	defer si.mu.Unlock()
	var out []types.Row
	if si.Ordered {
		if slot, ok := si.btree.Get(key); ok {
			out = append(out, si.btreeRows[slot]...)
		}
		return out
	}
	for _, id := range si.hash.Lookup(key) {
		out = append(out, si.hashPKs[id])
	}
	return out
}

// lookupRange returns candidate primary keys for from <= key < to
// (ordered indexes only; nil bounds are open).
func (si *SecondaryIndex) lookupRange(from, to types.Row) []types.Row {
	if !si.Ordered {
		return nil
	}
	si.mu.Lock()
	defer si.mu.Unlock()
	var out []types.Row
	si.btree.Ascend(from, to, func(k types.Row, slot int64) bool {
		out = append(out, si.btreeRows[slot]...)
		return true
	})
	return out
}

// CreateIndex adds a secondary index to a table and backfills it from
// the current snapshot. Ordered indexes support range lookups; unordered
// use hashing. Index names are engine-unique per table.
func (e *Engine) CreateIndex(table, name string, cols []string, ordered bool) error {
	tbl, err := e.Table(table)
	if err != nil {
		return err
	}
	positions := make([]int, len(cols))
	for i, cn := range cols {
		ci := tbl.schema.ColIndex(cn)
		if ci < 0 {
			return fmt.Errorf("core: no column %q in %s", cn, table)
		}
		positions[i] = ci
	}
	tbl.idxMu.Lock()
	defer tbl.idxMu.Unlock()
	for _, si := range tbl.indexes {
		if si.Name == name {
			return fmt.Errorf("core: index %q already exists on %s", name, table)
		}
	}
	si := newSecondaryIndex(name, positions, ordered)
	// Backfill from the latest snapshot: index maintenance for
	// concurrent writers starts once the index is published, so run the
	// backfill under the merge gate to exclude writers (same mechanism
	// the delta-merge uses).
	tbl.gate.Lock()
	for tbl.activeWriters.Load() != 0 {
		time.Sleep(100 * time.Microsecond) // writers drain: they bypass the gate
	}
	now := e.oracle.Now()
	scanTable(tbl, now, 0, nil, nil, 1, nil, func(_ int, b *types.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			si.add(row, tbl.schema.KeyOf(row))
		}
		return true
	})
	tbl.indexes = append(tbl.indexes, si)
	tbl.gate.Unlock()
	return nil
}

// Indexes returns the table's secondary indexes.
func (t *Table) Indexes() []*SecondaryIndex {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	return append([]*SecondaryIndex(nil), t.indexes...)
}

// indexFor finds an index whose first column is col (planner hook).
func (t *Table) indexFor(col int) *SecondaryIndex {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	for _, si := range t.indexes {
		if si.Cols[0] == col && len(si.Cols) == 1 {
			return si
		}
	}
	return nil
}

// maintainIndexes registers the new row in every secondary index and
// hooks removal on abort.
func (t *Tx) maintainIndexes(tbl *Table, row types.Row) {
	for _, si := range tbl.Indexes() {
		undo := si.add(row, tbl.schema.KeyOf(row))
		t.inner.OnAbort(undo)
	}
}

// LookupByIndex returns the rows visible to this transaction whose
// indexed columns equal key, using the named index.
func (t *Tx) LookupByIndex(table, idxName string, key types.Row) ([]types.Row, error) {
	tbl, err := t.engine.Table(table)
	if err != nil {
		return nil, err
	}
	var si *SecondaryIndex
	for _, cand := range tbl.Indexes() {
		if cand.Name == idxName {
			si = cand
			break
		}
	}
	if si == nil {
		return nil, fmt.Errorf("core: no index %q on %s", idxName, table)
	}
	check := func(got types.Row) bool { return types.CompareKeys(got, key) == 0 }
	return t.validateCandidates(tbl, si, si.lookupEq(key), check)
}

// LookupByIndexRange returns visible rows with from <= indexed key < to
// (ordered indexes only).
func (t *Tx) LookupByIndexRange(table, idxName string, from, to types.Row) ([]types.Row, error) {
	tbl, err := t.engine.Table(table)
	if err != nil {
		return nil, err
	}
	var si *SecondaryIndex
	for _, cand := range tbl.Indexes() {
		if cand.Name == idxName {
			si = cand
			break
		}
	}
	if si == nil {
		return nil, fmt.Errorf("core: no index %q on %s", idxName, table)
	}
	if !si.Ordered {
		return nil, fmt.Errorf("core: index %q is unordered (hash); range lookups need an ordered index", idxName)
	}
	check := func(key types.Row) bool {
		if from != nil && types.CompareKeys(key, from) < 0 {
			return false
		}
		if to != nil && types.CompareKeys(key, to) >= 0 {
			return false
		}
		return true
	}
	return t.validateCandidates(tbl, si, si.lookupRange(from, to), check)
}

// validateCandidates resolves candidate primary keys through MVCC and
// re-checks the indexed value against check (entries may be stale: the
// row may be deleted, invisible at this snapshot, or re-indexed).
func (t *Tx) validateCandidates(tbl *Table, si *SecondaryIndex, pks []types.Row, check func(key types.Row) bool) ([]types.Row, error) {
	var out []types.Row
	seen := make(map[string]bool, len(pks))
	for _, pk := range pks {
		sig := pk.String()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		row, ok, err := t.Get(tbl.name, pk)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // dead entry: row deleted or invisible at snapshot
		}
		if check != nil && !check(si.keyOf(row)) {
			continue // stale entry: indexed column changed since
		}
		out = append(out, row)
	}
	return out, nil
}
