package colstore

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/types"
)

// skipSchema is the four-type schema the scan-skipping suite runs over:
// a unique FOR-coded int, a low-cardinality dictionary-eligible int, a
// dictionary string, and a float — all but id nullable.
func skipSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "grp", Type: types.Int64},
		{Name: "cat", Type: types.String},
		{Name: "price", Type: types.Float64},
	}, "id")
}

// buildSkipSegment builds n rows with NULL patterns the pruning logic
// must survive: grp is entirely NULL in zone 2 (an all-null zone) and
// sporadically NULL elsewhere; cat and price have periodic NULLs.
func buildSkipSegment(t *testing.T, n int) *Segment {
	t.Helper()
	b := NewBuilder(skipSchema(), 1)
	for i := 0; i < n; i++ {
		grp := types.NewInt(int64(i%16) * 1000)
		if i/ZoneSize == 2 || i%11 == 0 {
			grp = types.NewNull(types.Int64)
		}
		cat := types.NewString(fmt.Sprintf("c%02d", i%10))
		if i%7 == 0 {
			cat = types.NewNull(types.String)
		}
		price := types.NewFloat(float64(i%50) * 0.75)
		if i%5 == 0 {
			price = types.NewNull(types.Float64)
		}
		b.Add(types.Row{types.NewInt(int64(i)), grp, cat, price})
	}
	return b.Build()
}

// TestIntDictEncodingChosen pins that a low-cardinality int column
// actually takes the int-dictionary encoding (the rewrite path under
// test) and still round-trips values and NULLs.
func TestIntDictEncodingChosen(t *testing.T) {
	seg := buildSkipSegment(t, 4*ZoneSize)
	if _, ok := seg.cols[1].(*intDictColumn); !ok {
		t.Fatalf("grp column encoded as %T, want *intDictColumn", seg.cols[1])
	}
	if _, ok := seg.cols[0].(*intColumn); !ok {
		t.Fatalf("id column encoded as %T, want *intColumn (FOR)", seg.cols[0])
	}
	for _, i := range []int{0, 1, 11, 2*ZoneSize + 5, 3*ZoneSize - 1, 4*ZoneSize - 1} {
		got := seg.Row(i)[1]
		wantNull := i/ZoneSize == 2 || i%11 == 0
		if got.Null != wantNull {
			t.Fatalf("row %d grp null = %v, want %v", i, got.Null, wantNull)
		}
		if !wantNull && got.I != int64(i%16)*1000 {
			t.Fatalf("row %d grp = %d", i, got.I)
		}
	}
}

// naiveScan is the reference evaluator: row-at-a-time Predicate.Matches
// over decoded values, no zone maps, no code rewrite.
func naiveScan(seg *Segment, readTS, self uint64, preds []Predicate) []types.Row {
	var out []types.Row
	for i := 0; i < seg.NumRows(); i++ {
		if !seg.RowVisible(i, readTS, self) {
			continue
		}
		row := seg.Row(i)
		ok := true
		for _, p := range preds {
			if !p.Matches(row[p.Col]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

func rowKey(r types.Row) string {
	s := ""
	for _, v := range r {
		s += v.String() + "|"
	}
	return s
}

// predPool enumerates the adversarial literal pool per column: present
// values, absent values inside the domain (dictionary membership must
// catch them), and values below/above every zone's min/max.
func predPool() [][]types.Value {
	return [][]types.Value{
		0: {types.NewInt(-1), types.NewInt(0), types.NewInt(500), types.NewInt(2047),
			types.NewInt(2048), types.NewInt(8191), types.NewInt(9000)},
		1: {types.NewInt(0), types.NewInt(1000), types.NewInt(1500), types.NewInt(-5),
			types.NewInt(15000), types.NewInt(20000), types.NewFloat(999.5), types.NewFloat(1000)},
		2: {types.NewString("c00"), types.NewString("c05"), types.NewString("c09"),
			types.NewString("c04x"), types.NewString("a"), types.NewString("z"), types.NewString("")},
		3: {types.NewFloat(0), types.NewFloat(0.75), types.NewFloat(10.5), types.NewFloat(-1),
			types.NewFloat(36.75), types.NewFloat(100), types.NewInt(3)},
	}
}

var allOps = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpIsNull, OpIsNotNull}

// TestScanSkipParityExhaustive runs every (column, operator, literal)
// single-predicate combination through the rewritten scan and the naive
// evaluator and requires identical rows in identical order.
func TestScanSkipParityExhaustive(t *testing.T) {
	seg := buildSkipSegment(t, 4*ZoneSize)
	pool := predPool()
	proj := []int{0, 1, 2, 3}
	for col := 0; col < 4; col++ {
		for _, op := range allOps {
			lits := pool[col]
			if op == OpIsNull || op == OpIsNotNull {
				lits = []types.Value{{}}
			}
			for _, lit := range lits {
				preds := []Predicate{{Col: col, Op: op, Val: lit}}
				want := naiveScan(seg, 100, 0, preds)
				var got []string
				seg.Scan(100, 0, proj, preds, 1, nil, func(_ int, b *types.Batch) bool {
					for r := 0; r < b.Len(); r++ {
						got = append(got, rowKey(b.Row(r)))
					}
					return true
				})
				if len(got) != len(want) {
					t.Fatalf("col=%d op=%s lit=%s: got %d rows, want %d",
						col, op, lit, len(got), len(want))
				}
				for i := range got {
					if got[i] != rowKey(want[i]) {
						t.Fatalf("col=%d op=%s lit=%s row %d: got %s want %s",
							col, op, lit, i, got[i], rowKey(want[i]))
					}
				}
			}
		}
	}
}

// TestScanSkipParityRandomized stacks 2-3 random predicates (so later
// kernels see already-narrowed selection vectors) and checks parity at
// one worker (zone order) and at four concurrent workers (sorted).
func TestScanSkipParityRandomized(t *testing.T) {
	seg := buildSkipSegment(t, 4*ZoneSize)
	st := NewStore(skipSchema())
	st.AddSegment(seg)
	pool := predPool()
	rng := rand.New(rand.NewSource(42))
	proj := []int{0, 1, 2, 3}
	for trial := 0; trial < 200; trial++ {
		np := 2 + rng.Intn(2)
		preds := make([]Predicate, 0, np)
		for len(preds) < np {
			col := rng.Intn(4)
			op := allOps[rng.Intn(len(allOps))]
			var lit types.Value
			if op != OpIsNull && op != OpIsNotNull {
				lit = pool[col][rng.Intn(len(pool[col]))]
			}
			preds = append(preds, Predicate{Col: col, Op: op, Val: lit})
		}
		want := naiveScan(seg, 100, 0, preds)
		wantKeys := make([]string, len(want))
		for i, r := range want {
			wantKeys[i] = rowKey(r)
		}

		var got []string
		seg.Scan(100, 0, proj, preds, 1, nil, func(_ int, b *types.Batch) bool {
			for r := 0; r < b.Len(); r++ {
				got = append(got, rowKey(b.Row(r)))
			}
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(wantKeys) {
			t.Fatalf("trial %d preds=%v: workers=1 parity broke (%d vs %d rows)",
				trial, preds, len(got), len(want))
		}

		// Parallel path: order is not defined across workers, compare sorted.
		var mu sync.Mutex
		var gotPar []string
		st.Scan(100, 0, proj, preds, 4, nil, func(_ int, b *types.Batch) bool {
			mu.Lock()
			defer mu.Unlock()
			for r := 0; r < b.Len(); r++ {
				gotPar = append(gotPar, rowKey(b.Row(r)))
			}
			return true
		})
		sort.Strings(gotPar)
		sortedWant := append([]string(nil), wantKeys...)
		sort.Strings(sortedWant)
		if fmt.Sprint(gotPar) != fmt.Sprint(sortedWant) {
			t.Fatalf("trial %d preds=%v: workers=4 parity broke (%d vs %d rows)",
				trial, preds, len(gotPar), len(want))
		}
	}
}

// TestSegmentPruneStats pins the segment-level skip: a clustered store
// where the predicate excludes three of four segments must report them
// pruned without decoding a single value from them.
func TestSegmentPruneStats(t *testing.T) {
	st := NewStore(skipSchema())
	for s := 0; s < 4; s++ {
		b := NewBuilder(skipSchema(), 1)
		for i := 0; i < 2*ZoneSize; i++ {
			id := int64(s*2*ZoneSize + i)
			b.Add(types.Row{types.NewInt(id), types.NewInt(id % 16 * 1000),
				types.NewString("x"), types.NewFloat(1)})
		}
		st.AddSegment(b.Build())
	}
	preds := []Predicate{
		{Col: 0, Op: OpGe, Val: types.NewInt(100)},
		{Col: 0, Op: OpLt, Val: types.NewInt(150)},
	}
	rows := 0
	stats := st.Scan(100, 0, []int{0, 3}, preds, 1, nil, func(_ int, b *types.Batch) bool {
		rows += b.Len()
		return true
	})
	if rows != 50 {
		t.Fatalf("rows = %d, want 50", rows)
	}
	if stats.SegmentsTotal != 4 || stats.SegmentsPruned != 3 {
		t.Fatalf("segments pruned %d/%d, want 3/4", stats.SegmentsPruned, stats.SegmentsTotal)
	}
	if stats.ZonesTotal != 8 || stats.ZonesPruned != 7 {
		t.Fatalf("zones pruned %d/%d, want 7/8", stats.ZonesPruned, stats.ZonesTotal)
	}
	if stats.RowsScanned != ZoneSize {
		t.Fatalf("rows scanned = %d, want one zone", stats.RowsScanned)
	}
	// Late materialization: both filter passes decode the id column
	// (1024 + 924 positions) and only the 50 survivors materialize the
	// two projected columns — nothing close to the eager
	// rows×columns cost.
	if want := 1024 + 924 + 50*2; stats.RowsDecoded != want {
		t.Fatalf("rows decoded = %d, want %d", stats.RowsDecoded, want)
	}
}

// TestDictAbsentEqualityPrunesSegment pins the dictionary-membership
// skip: an equality literal lexically inside [min, max] but absent from
// the dictionary excludes the segment with zero decoded values.
func TestDictAbsentEqualityPrunesSegment(t *testing.T) {
	seg := buildSkipSegment(t, 4*ZoneSize)
	preds := []Predicate{{Col: 2, Op: OpEq, Val: types.NewString("c04x")}}
	stats := seg.Scan(100, 0, []int{0}, preds, 1, nil, func(_ int, b *types.Batch) bool {
		t.Fatal("no batch expected")
		return true
	})
	if stats.SegmentsPruned != 1 || stats.ZonesPruned != 4 {
		t.Fatalf("pruned segments=%d zones=%d, want 1/4", stats.SegmentsPruned, stats.ZonesPruned)
	}
	if stats.RowsDecoded != 0 || stats.RowsScanned != 0 {
		t.Fatalf("decoded=%d scanned=%d, want 0/0", stats.RowsDecoded, stats.RowsScanned)
	}
	// Same for the int dictionary.
	preds = []Predicate{{Col: 1, Op: OpEq, Val: types.NewInt(1500)}}
	stats = seg.Scan(100, 0, []int{0}, preds, 1, nil, func(_ int, b *types.Batch) bool {
		t.Fatal("no batch expected")
		return true
	})
	if stats.SegmentsPruned != 1 || stats.RowsDecoded != 0 {
		t.Fatalf("int-dict absent literal: pruned=%d decoded=%d", stats.SegmentsPruned, stats.RowsDecoded)
	}
}

// TestNullCountPruning pins IS NULL / IS NOT NULL zone pruning by
// null-count rather than sentinel min/max.
func TestNullCountPruning(t *testing.T) {
	seg := buildSkipSegment(t, 4*ZoneSize)
	// id has no NULLs anywhere: IS NULL prunes the whole segment.
	stats := seg.Scan(100, 0, []int{0}, []Predicate{{Col: 0, Op: OpIsNull}}, 1, nil, func(_ int, b *types.Batch) bool {
		t.Fatal("no batch expected")
		return true
	})
	if stats.SegmentsPruned != 1 {
		t.Fatalf("IS NULL on non-null column: segments pruned = %d", stats.SegmentsPruned)
	}
	// grp IS NOT NULL prunes exactly the all-null zone 2.
	stats = seg.Scan(100, 0, []int{0}, []Predicate{{Col: 1, Op: OpIsNotNull}}, 1, nil, func(_ int, b *types.Batch) bool { return true })
	if stats.ZonesPruned != 1 {
		t.Fatalf("IS NOT NULL: zones pruned = %d, want 1 (the all-null zone)", stats.ZonesPruned)
	}
	// A comparison can never match in the all-null zone either.
	stats = seg.Scan(100, 0, []int{0}, []Predicate{{Col: 1, Op: OpLe, Val: types.NewInt(100000)}}, 1, nil, func(_ int, b *types.Batch) bool { return true })
	if stats.ZonesPruned < 1 {
		t.Fatalf("comparison over all-null zone not pruned (pruned=%d)", stats.ZonesPruned)
	}
	// Summary fold must expose the null counts.
	sum := seg.ColumnSummary(1)
	if sum.NullCount <= ZoneSize || sum.Rows != 4*ZoneSize {
		t.Fatalf("summary null-count=%d rows=%d", sum.NullCount, sum.Rows)
	}
	if z := seg.zones[1][2]; !z.AllNull() {
		t.Fatalf("zone 2 should be all-null (nulls=%d rows=%d)", z.NullCount, z.Rows)
	}
}

// TestFilterKernelsZeroAlloc pins that the vectorized predicate kernels
// — including the dictionary code rewrite — allocate nothing in steady
// state: no string is ever materialized to evaluate a string predicate.
func TestFilterKernelsZeroAlloc(t *testing.T) {
	seg := buildSkipSegment(t, 4*ZoneSize)
	sc := &scanScratch{sel: make([]int, 0, ZoneSize)}
	sel := make([]int, ZoneSize)
	cases := []Predicate{
		{Col: 2, Op: OpEq, Val: types.NewString("c05")},
		{Col: 2, Op: OpNe, Val: types.NewString("c05")},
		{Col: 2, Op: OpGe, Val: types.NewString("c03")},
		{Col: 1, Op: OpEq, Val: types.NewInt(4000)},
		{Col: 1, Op: OpLt, Val: types.NewInt(9000)},
		{Col: 0, Op: OpGt, Val: types.NewInt(1234)},
		{Col: 2, Op: OpIsNotNull},
	}
	var stats ScanStats
	for _, p := range cases {
		p := p
		reset := func() {
			for i := range sel {
				sel[i] = i
			}
		}
		reset()
		seg.filterSel(p, sel, sc, &stats) // warm scratch buffers
		allocs := testing.AllocsPerRun(50, func() {
			reset()
			seg.filterSel(p, sel, sc, &stats)
		})
		if allocs != 0 {
			t.Fatalf("pred %v: %v allocs/run, want 0", p, allocs)
		}
	}
}
