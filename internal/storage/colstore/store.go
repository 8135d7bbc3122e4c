package colstore

import (
	"sync"
	"sync/atomic"

	"repro/internal/txn"
	"repro/internal/types"
)

// Store is the column-store side of one table: an ordered list of
// immutable segments, oldest first. New segments are appended by the
// delta-merge; compaction may rewrite segments with many deleted rows.
type Store struct {
	mu       sync.RWMutex
	schema   *types.Schema
	segments []*Segment
}

// NewStore creates an empty column store for the schema.
func NewStore(schema *types.Schema) *Store {
	return &Store{schema: schema}
}

// Schema returns the table schema.
func (st *Store) Schema() *types.Schema { return st.schema }

// AddSegment appends a freshly merged segment.
func (st *Store) AddSegment(s *Segment) {
	st.mu.Lock()
	st.segments = append(st.segments, s)
	st.mu.Unlock()
}

// Segments returns a snapshot of the segment list.
func (st *Store) Segments() []*Segment {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return append([]*Segment(nil), st.segments...)
}

// NumSegments returns the segment count.
func (st *Store) NumSegments() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.segments)
}

// NumRows returns the total physical rows across segments.
func (st *Store) NumRows() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for _, s := range st.segments {
		n += s.NumRows()
	}
	return n
}

// SizeBytes returns the total encoded size across segments.
func (st *Store) SizeBytes() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	sz := 0
	for _, s := range st.segments {
		sz += s.SizeBytes()
	}
	return sz
}

// Scan is Segment.Scan over every segment in order, merging stats and
// propagating fn's early stop and done-channel cancellation across
// segments. Within a segment batch order is not preserved.
func (st *Store) Scan(readTS, self uint64, proj []int, preds []Predicate, workers int, done <-chan struct{}, fn func(worker int, b *types.Batch) bool) ScanStats {
	var total ScanStats
	var stop atomic.Bool
	for _, s := range st.Segments() {
		if stop.Load() || IsDone(done) {
			break
		}
		stats := s.Scan(readTS, self, proj, preds, workers, done, func(w int, b *types.Batch) bool {
			if !fn(w, b) {
				stop.Store(true)
				return false
			}
			return true
		})
		total.Add(stats)
	}
	return total
}

// FindVisible locates the live, visible copy of key across segments,
// returning the segment, row index, and true if found.
func (st *Store) FindVisible(key types.Row, readTS, self uint64) (*Segment, int, bool) {
	segs := st.Segments()
	// Newest segment first: a re-merged key's freshest copy wins.
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		if idx := s.FindKey(key); idx >= 0 && s.RowVisible(idx, readTS, self) {
			return s, idx, true
		}
	}
	return nil, 0, false
}

// FindBlocking reports whether any segment holds a copy of key that
// would block an insert under first-updater-wins: a copy that is live,
// has an uncommitted delete by another transaction, or was deleted after
// readTS. The engine's insert path uses this for uniqueness.
func (st *Store) FindBlocking(key types.Row, readTS, self uint64) bool {
	for _, s := range st.Segments() {
		idx := s.FindKey(key)
		if idx < 0 {
			continue
		}
		dts := s.DeleteTS(idx)
		switch {
		case dts == txn.InfTS:
			return true // live copy
		case !txn.IsCommittedTS(dts):
			if dts != self {
				return true // another txn's pending delete
			}
		case dts > readTS:
			return true // deleted after our snapshot: conflict
		}
	}
	return false
}

// MarkDeleted locates key's live copy and MVCC-marks it deleted for t.
// Returns false if no visible copy exists in any segment.
func (st *Store) MarkDeleted(t *txn.Txn, key types.Row) (bool, error) {
	s, idx, ok := st.FindVisible(key, t.ReadTS, t.ID)
	if !ok {
		return false, nil
	}
	if err := s.MarkDeleted(t, idx); err != nil {
		return true, err
	}
	return true, nil
}

// CompactThreshold is the deleted-row fraction above which Compact
// rewrites a segment.
const CompactThreshold = 0.3

// Compact rewrites segments whose committed-deleted fraction exceeds
// CompactThreshold, dropping rows invisible at the watermark. It returns
// the number of segments rewritten. Callers must ensure (via the merge
// barrier) that no snapshot older than watermark is active.
func (st *Store) Compact(watermark uint64) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	rewritten := 0
	for i, s := range st.segments {
		if s.NumRows() == 0 {
			continue
		}
		frac := float64(s.DeletedRows()) / float64(s.NumRows())
		if frac < CompactThreshold {
			continue
		}
		b := NewBuilder(st.schema, s.CreateTS())
		for r := 0; r < s.NumRows(); r++ {
			dts := s.delTS[r].Load()
			if txn.IsCommittedTS(dts) && dts <= watermark {
				continue // dead to everyone
			}
			b.AddVersioned(s.Row(r), s.insTS[r])
		}
		ns := b.Build()
		// Carry surviving delete marks (deletes after the watermark).
		nr := 0
		for r := 0; r < s.NumRows(); r++ {
			dts := s.delTS[r].Load()
			if txn.IsCommittedTS(dts) && dts <= watermark {
				continue
			}
			if dts != txn.InfTS {
				ns.delTS[nr].Store(dts)
				if txn.IsCommittedTS(dts) {
					ns.deleted.Add(1)
				}
			}
			nr++
		}
		st.segments[i] = ns
		rewritten++
	}
	return rewritten
}
