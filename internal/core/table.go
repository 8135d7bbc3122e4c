// Package core implements the oadms engine: dual-format OLTAP tables in
// the architecture the tutorial describes for SAP HANA, Oracle Database
// In-Memory, and MemSQL. Every table keeps a write-optimized MVCC row
// store (the delta) and a read-optimized compressed column store
// simultaneously active, under one timestamp domain, so OLTP writes and
// analytic scans observe the same transaction-consistent snapshots.
// A delta-merge moves quiescent rows from delta to column segments
// (differential files / LSM [29,16]).
package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/storage/colstore"
	"repro/internal/storage/rowstore"
	"repro/internal/types"
)

// Table is one dual-format table.
type Table struct {
	name   string
	schema *types.Schema

	// delta is the write-optimized row store; cold the column store.
	delta *rowstore.Store
	cold  *colstore.Store

	// gate blocks *new* write operations during a merge; transactions
	// that already wrote this table bypass it (tracked per-txn) so they
	// can run to completion and drain activeWriters.
	gate sync.RWMutex
	// activeWriters counts transactions holding uncommitted writes on
	// this table.
	activeWriters atomic.Int64
	// storageMu serializes scans/point-reads against the segment-install
	// + delta-truncate switch at the end of a merge.
	storageMu sync.RWMutex

	// stats
	merges atomic.Int64
	// scanMu guards scanStats, the cumulative pruning counters folded in
	// after every scan of this table (surfaced by Table.ScanStats and the
	// shell's \stats).
	scanMu    sync.Mutex
	scanStats colstore.ScanStats
}

func newTable(name string, schema *types.Schema) (*Table, error) {
	rs, err := rowstore.New(schema)
	if err != nil {
		return nil, err
	}
	return &Table{
		name:   name,
		schema: schema,
		delta:  rs,
		cold:   colstore.NewStore(schema),
	}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// DeltaRows returns the live row count in the delta (row store).
func (t *Table) DeltaRows() int { return t.delta.LiveCount() }

// ColdRows returns the physical row count across column segments.
func (t *Table) ColdRows() int { return t.cold.NumRows() }

// Merges returns how many delta-merges have run.
func (t *Table) Merges() int { return int(t.merges.Load()) }

// ScanStats returns the cumulative scan/pruning statistics of the
// table: every completed scan folds its ScanStats in, so the
// SegmentsPruned/ZonesPruned/RowsDecoded counters show how much work
// zone maps and late materialization have been skipping over the
// table's lifetime.
func (t *Table) ScanStats() colstore.ScanStats {
	t.scanMu.Lock()
	defer t.scanMu.Unlock()
	return t.scanStats
}

// recordScan folds one scan's stats into the cumulative counters.
func (t *Table) recordScan(s colstore.ScanStats) {
	t.scanMu.Lock()
	t.scanStats.Add(s)
	t.scanMu.Unlock()
}

// Delta exposes the row store (benchmarks and tests).
func (t *Table) Delta() *rowstore.Store { return t.delta }

// Cold exposes the column store (benchmarks and tests).
func (t *Table) Cold() *colstore.Store { return t.cold }
