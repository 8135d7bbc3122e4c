package colstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/types"
)

// buildParallelSegment builds a segment spanning several zones with
// int/float/string columns and scattered NULLs.
func buildParallelSegment(n int) *Segment {
	schema := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "v", Type: types.Int64},
		{Name: "f", Type: types.Float64},
		{Name: "s", Type: types.String},
	}, "id")
	b := NewBuilder(schema, 1)
	for i := 0; i < n; i++ {
		v := types.NewInt(int64(i % 1000))
		if i%97 == 0 {
			v = types.NewNull(types.Int64)
		}
		f := types.NewFloat(float64(i) / 4)
		if i%89 == 0 {
			f = types.NewNull(types.Float64)
		}
		b.Add(types.Row{
			types.NewInt(int64(i)),
			v,
			f,
			types.NewString(fmt.Sprintf("s%02d", i%37)),
		})
	}
	return b.Build()
}

type scanTotals struct {
	rows int
	sumV int64
	sumF float64
}

// drain scans seg at the given worker count. The callback touches only
// atomics, so it is safe at any width without a lock of its own.
func drain(seg *Segment, workers int, preds []Predicate) (scanTotals, ScanStats) {
	var tot scanTotals
	var sumV, rows atomic.Int64
	stats := seg.Scan(100, 0, []int{0, 1, 2, 3}, preds, workers, nil, func(_ int, b *types.Batch) bool {
		rows.Add(int64(b.Len()))
		vc := b.Cols[1]
		for i := 0; i < b.Len(); i++ {
			phys := b.RowIdx(i)
			if !vc.IsNull(phys) {
				sumV.Add(vc.Ints[phys])
			}
		}
		return true
	})
	tot.rows = int(rows.Load())
	tot.sumV = sumV.Load()
	return tot, stats
}

func TestScanParallelMatchesSerial(t *testing.T) {
	seg := buildParallelSegment(8*ZoneSize + 123)
	for _, preds := range [][]Predicate{
		nil,
		{{Col: 1, Op: OpLt, Val: types.NewInt(500)}},
		{{Col: 0, Op: OpGe, Val: types.NewInt(2000)}, {Col: 0, Op: OpLt, Val: types.NewInt(5000)}},
		{{Col: 3, Op: OpEq, Val: types.NewString("s05")}},
	} {
		serial, serialStats := drain(seg, 1, preds)
		for _, workers := range []int{2, 4} {
			par, parStats := drain(seg, workers, preds)
			if par != serial {
				t.Errorf("workers=%d preds=%v: %+v != workers=1 %+v", workers, preds, par, serial)
			}
			if parStats != serialStats {
				t.Errorf("workers=%d preds=%v: stats %+v != %+v", workers, preds, parStats, serialStats)
			}
		}
	}
}

func TestScanParallelVisibility(t *testing.T) {
	// Rows merged at different versions: only those at or before the
	// read snapshot are visible, identically at every worker count.
	schema := types.MustSchema([]types.Column{{Name: "id", Type: types.Int64}}, "id")
	b := NewBuilder(schema, 50)
	const n = 4 * ZoneSize
	for i := 0; i < n; i++ {
		b.AddVersioned(types.Row{types.NewInt(int64(i))}, uint64(10+i%20))
	}
	seg := b.Build()
	for _, readTS := range []uint64{9, 15, 40} {
		count := func(workers int) (int64, ScanStats) {
			var got atomic.Int64
			stats := seg.Scan(readTS, 0, []int{0}, nil, workers, nil, func(_ int, batch *types.Batch) bool {
				got.Add(int64(batch.Len()))
				return true
			})
			return got.Load(), stats
		}
		serial, serialStats := count(1)
		parallel, parStats := count(4)
		if serial != parallel || serialStats != parStats {
			t.Errorf("readTS=%d: workers=1 %d/%+v != workers=4 %d/%+v", readTS, serial, serialStats, parallel, parStats)
		}
	}
}

func TestScanParallelEarlyStop(t *testing.T) {
	seg := buildParallelSegment(16 * ZoneSize)
	for _, workers := range []int{1, 4} {
		var delivered atomic.Int64
		stats := seg.Scan(100, 0, []int{0}, nil, workers, nil, func(_ int, b *types.Batch) bool {
			return delivered.Add(1) < 3
		})
		if got := delivered.Load(); got < 3 {
			t.Fatalf("workers=%d: delivered %d batches before stop, want >= 3", workers, got)
		}
		if workers == 1 && delivered.Load() != 3 {
			t.Fatalf("workers=1: delivered %d batches, want exactly 3", delivered.Load())
		}
		// Early termination must not have scanned everything.
		if stats.RowsMatched >= 16*ZoneSize {
			t.Errorf("workers=%d: early stop still matched all %d rows", workers, stats.RowsMatched)
		}
	}
}

// TestScanParallelBatchTransient documents the worker-owned batch
// contract at every worker count: a batch retained beyond the callback
// is reused, so retainers must Copy, and the Copy must survive intact.
// The callback appends to a shared slice, so at workers > 1 it takes
// its own lock — Scan does not serialize callbacks.
func TestScanParallelBatchTransient(t *testing.T) {
	seg := buildParallelSegment(6 * ZoneSize)
	want := 6 * ZoneSize
	var wantSum int64
	for i := 0; i < want; i++ {
		wantSum += int64(i)
	}
	for _, workers := range []int{1, 2} {
		var (
			mu       sync.Mutex
			copies   []*types.Batch
			retained []*types.Batch
		)
		seg.Scan(100, 0, []int{0, 1}, nil, workers, nil, func(_ int, b *types.Batch) bool {
			mu.Lock()
			defer mu.Unlock()
			copies = append(copies, b.Copy())
			retained = append(retained, b)
			return true
		})
		total := 0
		var sum int64
		for _, b := range copies {
			total += b.Len()
			c := b.Cols[0]
			for i := 0; i < b.Len(); i++ {
				sum += c.Ints[i]
			}
		}
		if total != want {
			t.Fatalf("workers=%d: copied rows = %d, want %d", workers, total, want)
		}
		if sum != wantSum {
			t.Fatalf("workers=%d: sum over copies = %d, want %d", workers, sum, wantSum)
		}
		// Each worker hands out one batch, refilled per zone.
		distinct := map[*types.Batch]bool{}
		for _, b := range retained {
			distinct[b] = true
		}
		if len(distinct) > workers {
			t.Fatalf("workers=%d: %d distinct batches delivered, want at most one per worker", workers, len(distinct))
		}
	}
}

func TestScanParallelSingleZoneFallsBack(t *testing.T) {
	seg := buildParallelSegment(100) // one zone: one worker regardless of the request
	got, stats := drain(seg, 8, nil)
	want, wantStats := drain(seg, 1, nil)
	if got != want || stats != wantStats {
		t.Fatalf("single-zone workers=8 %+v/%+v != workers=1 %+v/%+v", got, stats, want, wantStats)
	}
	workers := map[int]bool{}
	seg.Scan(100, 0, []int{0}, nil, 8, nil, func(w int, b *types.Batch) bool {
		workers[w] = true // no lock: a single zone runs on the calling goroutine
		return true
	})
	if len(workers) != 1 || !workers[0] {
		t.Fatalf("single-zone scan ran on workers %v, want only worker 0", workers)
	}
}
