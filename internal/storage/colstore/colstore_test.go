package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
)

func testSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "cat", Type: types.String},
		{Name: "price", Type: types.Float64},
		{Name: "active", Type: types.Bool},
	}, "id")
}

func buildSegment(t *testing.T, n int, createTS uint64) *Segment {
	t.Helper()
	b := NewBuilder(testSchema(), createTS)
	cats := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		b.Add(types.Row{
			types.NewInt(int64(i)),
			types.NewString(cats[i%len(cats)]),
			types.NewFloat(float64(i) * 1.5),
			types.NewBool(i%2 == 0),
		})
	}
	return b.Build()
}

func TestSegmentRoundTrip(t *testing.T) {
	seg := buildSegment(t, 3000, 10)
	if seg.NumRows() != 3000 {
		t.Fatalf("NumRows = %d", seg.NumRows())
	}
	for _, i := range []int{0, 1, 1023, 1024, 2999} {
		r := seg.Row(i)
		if r[0].I != int64(i) {
			t.Fatalf("row %d id = %d", i, r[0].I)
		}
		if r[2].F != float64(i)*1.5 {
			t.Fatalf("row %d price = %f", i, r[2].F)
		}
		if r[3].Bool() != (i%2 == 0) {
			t.Fatalf("row %d active wrong", i)
		}
	}
	if seg.CreateTS() != 10 {
		t.Fatal("CreateTS")
	}
}

func TestSegmentNulls(t *testing.T) {
	b := NewBuilder(testSchema(), 1)
	b.Add(types.Row{types.NewInt(1), types.NewNull(types.String), types.NewNull(types.Float64), types.NewNull(types.Bool)})
	b.Add(types.Row{types.NewInt(2), types.NewString("x"), types.NewFloat(5), types.NewBool(true)})
	seg := b.Build()
	r := seg.Row(0)
	if !r[1].Null || !r[2].Null || !r[3].Null {
		t.Fatal("nulls not preserved")
	}
	if seg.Row(1)[1].S != "x" {
		t.Fatal("non-null after null wrong")
	}
	// NULL never matches predicates.
	var n int
	seg.Scan(100, 0, []int{0}, []Predicate{{Col: 1, Op: OpEq, Val: types.NewString("x")}}, 1, nil, func(_ int, b *types.Batch) bool {
		n += b.Len()
		return true
	})
	if n != 1 {
		t.Fatalf("predicate over nulls matched %d", n)
	}
}

func TestSegmentCompression(t *testing.T) {
	seg := buildSegment(t, 10000, 1)
	// id: FOR-coded 0..9999 (14 bits), cat: 4-value dict (2 bits),
	// price: raw floats, active: 1 bit. Raw would be ~10000*(8+5+8+1).
	raw := 10000 * 22
	if seg.SizeBytes() >= raw {
		t.Fatalf("no compression: %d >= %d", seg.SizeBytes(), raw)
	}
}

func TestScanProjectionAndPredicates(t *testing.T) {
	seg := buildSegment(t, 5000, 1)
	var ids []int64
	stats := seg.Scan(100, 0, []int{0, 2}, []Predicate{
		{Col: 0, Op: OpGe, Val: types.NewInt(100)},
		{Col: 0, Op: OpLt, Val: types.NewInt(110)},
	}, 1, nil, func(_ int, b *types.Batch) bool {
		if len(b.Cols) != 2 {
			t.Fatal("projection width")
		}
		ids = append(ids, b.Cols[0].Ints...)
		return true
	})
	if len(ids) != 10 || ids[0] != 100 || ids[9] != 109 {
		t.Fatalf("ids = %v", ids)
	}
	if stats.RowsMatched != 10 {
		t.Fatalf("stats matched = %d", stats.RowsMatched)
	}
}

func TestScanStringPredicateOnCodes(t *testing.T) {
	seg := buildSegment(t, 4000, 1)
	count := 0
	seg.Scan(100, 0, []int{1}, []Predicate{{Col: 1, Op: OpEq, Val: types.NewString("beta")}}, 1, nil, func(_ int, b *types.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			if b.Cols[0].Get(i).S != "beta" {
				t.Fatal("wrong string matched")
			}
		}
		count += b.Len()
		return true
	})
	if count != 1000 {
		t.Fatalf("beta count = %d", count)
	}
	// Range predicate on strings (code-domain).
	count = 0
	seg.Scan(100, 0, []int{1}, []Predicate{{Col: 1, Op: OpLe, Val: types.NewString("beta")}}, 1, nil, func(_ int, b *types.Batch) bool {
		count += b.Len()
		return true
	})
	// alpha + beta = 2000.
	if count != 2000 {
		t.Fatalf("<=beta count = %d", count)
	}
	// Not-equal.
	count = 0
	seg.Scan(100, 0, []int{1}, []Predicate{{Col: 1, Op: OpNe, Val: types.NewString("beta")}}, 1, nil, func(_ int, b *types.Batch) bool {
		count += b.Len()
		return true
	})
	if count != 3000 {
		t.Fatalf("<>beta count = %d", count)
	}
	// Absent value: Ne matches everything, Eq nothing.
	count = 0
	seg.Scan(100, 0, []int{1}, []Predicate{{Col: 1, Op: OpNe, Val: types.NewString("zzz")}}, 1, nil, func(_ int, b *types.Batch) bool {
		count += b.Len()
		return true
	})
	if count != 4000 {
		t.Fatalf("<>zzz count = %d", count)
	}
	count = 0
	seg.Scan(100, 0, []int{1}, []Predicate{{Col: 1, Op: OpEq, Val: types.NewString("zzz")}}, 1, nil, func(_ int, b *types.Batch) bool {
		count += b.Len()
		return true
	})
	if count != 0 {
		t.Fatalf("=zzz count = %d", count)
	}
}

func TestZoneMapPruning(t *testing.T) {
	// Clustered ids: predicate on a narrow range must prune most zones.
	seg := buildSegment(t, 64*ZoneSize, 1)
	stats := seg.Scan(100, 0, []int{0}, []Predicate{
		{Col: 0, Op: OpGe, Val: types.NewInt(0)},
		{Col: 0, Op: OpLt, Val: types.NewInt(int64(ZoneSize))},
	}, 1, nil, func(_ int, b *types.Batch) bool { return true })
	if stats.ZonesTotal != 64 {
		t.Fatalf("zones = %d", stats.ZonesTotal)
	}
	if stats.ZonesPruned < 62 {
		t.Fatalf("pruned only %d of 64 zones", stats.ZonesPruned)
	}
	if stats.RowsMatched != ZoneSize {
		t.Fatalf("matched = %d", stats.RowsMatched)
	}
}

func TestZonePruningNeverChangesResults(t *testing.T) {
	// Property: scan results with shuffled data (no pruning possible)
	// match brute-force evaluation.
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder(testSchema(), 1)
	n := 3 * ZoneSize
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	for i := 0; i < n; i++ {
		b.Add(types.Row{types.NewInt(vals[i]), types.NewString("x"), types.NewFloat(0), types.NewBool(false)})
	}
	// Note: ids duplicate; key index tolerates duplicates for this test.
	seg := b.Build()
	for _, pred := range []Predicate{
		{Col: 0, Op: OpEq, Val: types.NewInt(500)},
		{Col: 0, Op: OpLt, Val: types.NewInt(100)},
		{Col: 0, Op: OpGe, Val: types.NewInt(900)},
		{Col: 0, Op: OpNe, Val: types.NewInt(0)},
	} {
		want := 0
		for _, v := range vals {
			if pred.Matches(types.NewInt(v)) {
				want++
			}
		}
		got := 0
		seg.Scan(100, 0, []int{0}, []Predicate{pred}, 1, nil, func(_ int, b *types.Batch) bool {
			got += b.Len()
			return true
		})
		if got != want {
			t.Fatalf("pred %v: got %d, want %d", pred, got, want)
		}
	}
}

func TestFindKeyAndMarkDeleted(t *testing.T) {
	o := txn.NewOracle()
	seg := buildSegment(t, 2000, 1)
	idx := seg.FindKey(types.Row{types.NewInt(777)})
	if idx != 777 {
		t.Fatalf("FindKey = %d", idx)
	}
	if seg.FindKey(types.Row{types.NewInt(99999)}) != -1 {
		t.Fatal("absent key found")
	}
	tx := o.Begin()
	if err := seg.MarkDeleted(tx, idx); err != nil {
		t.Fatal(err)
	}
	// Invisible to the deleter, visible to others while uncommitted.
	if seg.RowVisible(idx, tx.ReadTS, tx.ID) {
		t.Fatal("own delete should conceal")
	}
	other := o.Begin()
	if !seg.RowVisible(idx, other.ReadTS, other.ID) {
		t.Fatal("uncommitted delete leaked")
	}
	// Concurrent delete conflicts.
	if err := seg.MarkDeleted(other, idx); err != txn.ErrConflict {
		t.Fatalf("concurrent mark: %v", err)
	}
	other.Abort()
	ts, _ := tx.Commit()
	if seg.DeletedRows() != 1 {
		t.Fatal("deleted count")
	}
	// Visible to snapshots before the delete, invisible after.
	if !seg.RowVisible(idx, ts-1, 0) {
		t.Fatal("old snapshot should still see the row")
	}
	if seg.RowVisible(idx, ts, 0) {
		t.Fatal("row visible after committed delete")
	}
	// Abort path restores the mark.
	tx2 := o.Begin()
	idx2 := seg.FindKey(types.Row{types.NewInt(5)})
	seg.MarkDeleted(tx2, idx2)
	tx2.Abort()
	if seg.DeleteTS(idx2) != txn.InfTS {
		t.Fatal("abort did not restore delete TS")
	}
}

func TestScanSkipsDeleted(t *testing.T) {
	o := txn.NewOracle()
	seg := buildSegment(t, 100, 1)
	tx := o.Begin()
	for i := 0; i < 50; i++ {
		if err := seg.MarkDeleted(tx, i); err != nil {
			t.Fatal(err)
		}
	}
	ts, _ := tx.Commit()
	count := 0
	stats := seg.Scan(ts, 0, []int{0}, nil, 1, nil, func(_ int, b *types.Batch) bool {
		count += b.Len()
		return true
	})
	if count != 50 {
		t.Fatalf("visible rows = %d", count)
	}
	if stats.RowsConcealed != 50 {
		t.Fatalf("concealed = %d", stats.RowsConcealed)
	}
}

func TestStoreMultiSegmentScanAndFind(t *testing.T) {
	o := txn.NewOracle()
	st := NewStore(testSchema())
	// Two segments with disjoint key ranges.
	b1 := NewBuilder(testSchema(), 1)
	for i := 0; i < 100; i++ {
		b1.Add(types.Row{types.NewInt(int64(i)), types.NewString("s1"), types.NewFloat(1), types.NewBool(true)})
	}
	st.AddSegment(b1.Build())
	b2 := NewBuilder(testSchema(), 2)
	for i := 100; i < 250; i++ {
		b2.Add(types.Row{types.NewInt(int64(i)), types.NewString("s2"), types.NewFloat(2), types.NewBool(false)})
	}
	st.AddSegment(b2.Build())

	if st.NumSegments() != 2 || st.NumRows() != 250 {
		t.Fatalf("segments=%d rows=%d", st.NumSegments(), st.NumRows())
	}
	count := 0
	st.Scan(100, 0, []int{0}, nil, 1, nil, func(_ int, b *types.Batch) bool {
		count += b.Len()
		return true
	})
	if count != 250 {
		t.Fatalf("scan count = %d", count)
	}
	seg, idx, ok := st.FindVisible(types.Row{types.NewInt(150)}, 100, 0)
	if !ok || seg.Row(idx)[1].S != "s2" {
		t.Fatal("FindVisible failed")
	}
	// Advance the oracle clock past the segment create timestamps so a
	// fresh snapshot sees the merged rows.
	for o.Now() < 2 {
		tmp := o.Begin()
		tmp.Commit()
	}
	// MarkDeleted through the store.
	tx := o.Begin()
	found, err := st.MarkDeleted(tx, types.Row{types.NewInt(150)})
	if !found || err != nil {
		t.Fatalf("MarkDeleted: %v %v", found, err)
	}
	tx.Commit()
	if _, _, ok := st.FindVisible(types.Row{types.NewInt(150)}, o.Now(), 0); ok {
		t.Fatal("deleted key still visible")
	}
	found, _ = st.MarkDeleted(o.Begin(), types.Row{types.NewInt(99999)})
	if found {
		t.Fatal("absent key marked")
	}
}

func TestStoreCompact(t *testing.T) {
	o := txn.NewOracle()
	st := NewStore(testSchema())
	b := NewBuilder(testSchema(), 1)
	for i := 0; i < 1000; i++ {
		b.Add(types.Row{types.NewInt(int64(i)), types.NewString("x"), types.NewFloat(0), types.NewBool(false)})
	}
	st.AddSegment(b.Build())
	// Delete 40% — above the compaction threshold.
	tx := o.Begin()
	for i := 0; i < 400; i++ {
		if _, err := st.MarkDeleted(tx, types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	n := st.Compact(o.Now())
	if n != 1 {
		t.Fatalf("compacted %d segments", n)
	}
	if st.NumRows() != 600 {
		t.Fatalf("rows after compact = %d", st.NumRows())
	}
	// Data intact.
	count := 0
	st.Scan(o.Now(), 0, []int{0}, nil, 1, nil, func(_ int, b *types.Batch) bool {
		for _, id := range b.Cols[0].Ints {
			if id < 400 {
				t.Fatalf("deleted row %d survived compaction", id)
			}
		}
		count += b.Len()
		return true
	})
	if count != 600 {
		t.Fatalf("visible rows = %d", count)
	}
	// Below threshold: no rewrite.
	if st.Compact(o.Now()) != 0 {
		t.Fatal("second compact should be a no-op")
	}
}

func TestScanEarlyStop(t *testing.T) {
	seg := buildSegment(t, 10*ZoneSize, 1)
	batches := 0
	seg.Scan(100, 0, []int{0}, nil, 1, nil, func(_ int, b *types.Batch) bool {
		batches++
		return false
	})
	if batches != 1 {
		t.Fatalf("early stop delivered %d batches", batches)
	}
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("Op %d String = %q", op, op.String())
		}
	}
}

func TestEmptySegment(t *testing.T) {
	b := NewBuilder(testSchema(), 1)
	seg := b.Build()
	if seg.NumRows() != 0 {
		t.Fatal("empty segment rows")
	}
	n := 0
	seg.Scan(10, 0, []int{0}, nil, 1, nil, func(_ int, b *types.Batch) bool { n++; return true })
	if n != 0 {
		t.Fatal("empty segment delivered batches")
	}
}

func TestBuilderLen(t *testing.T) {
	b := NewBuilder(testSchema(), 1)
	if b.Len() != 0 {
		t.Fatal("fresh builder")
	}
	b.Add(types.Row{types.NewInt(1), types.NewString("a"), types.NewFloat(0), types.NewBool(false)})
	if b.Len() != 1 {
		t.Fatal("Len after Add")
	}
}

func TestFloatPredicates(t *testing.T) {
	seg := buildSegment(t, 1000, 1)
	count := 0
	seg.Scan(100, 0, []int{2}, []Predicate{{Col: 2, Op: OpLt, Val: types.NewFloat(15.0)}}, 1, nil, func(_ int, b *types.Batch) bool {
		count += b.Len()
		return true
	})
	// price = i*1.5 < 15 → i < 10.
	if count != 10 {
		t.Fatalf("float pred count = %d", count)
	}
}

func TestBoolPredicates(t *testing.T) {
	seg := buildSegment(t, 100, 1)
	count := 0
	seg.Scan(100, 0, []int{3}, []Predicate{{Col: 3, Op: OpEq, Val: types.NewBool(true)}}, 1, nil, func(_ int, b *types.Batch) bool {
		count += b.Len()
		return true
	})
	if count != 50 {
		t.Fatalf("bool pred count = %d", count)
	}
}

func TestScanStatsString(t *testing.T) {
	// Sanity on stats plumbing across the store wrapper.
	st := NewStore(testSchema())
	for s := 0; s < 3; s++ {
		b := NewBuilder(testSchema(), uint64(s+1))
		for i := 0; i < ZoneSize; i++ {
			b.Add(types.Row{types.NewInt(int64(s*ZoneSize + i)), types.NewString("x"), types.NewFloat(0), types.NewBool(false)})
		}
		st.AddSegment(b.Build())
	}
	stats := st.Scan(100, 0, []int{0}, []Predicate{{Col: 0, Op: OpLt, Val: types.NewInt(10)}}, 1, nil, func(_ int, b *types.Batch) bool { return true })
	if stats.ZonesTotal != 3 {
		t.Fatalf("zones total = %d", stats.ZonesTotal)
	}
	if stats.ZonesPruned != 2 {
		t.Fatalf("zones pruned = %d", stats.ZonesPruned)
	}
	if fmt.Sprint(stats) == "" {
		t.Error("stats should format")
	}
}
