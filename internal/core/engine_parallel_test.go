package core

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage/colstore"
	"repro/internal/types"
)

func buildParallelEngine(t *testing.T, parallelism int) *Engine {
	t.Helper()
	e, err := NewEngine(Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	schema := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "v", Type: types.Int64},
	}, "id")
	if _, err := e.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	const n = 10_000
	tx := e.Begin()
	for i := 0; i < n; i++ {
		if err := tx.Insert("t", types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 100))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Merge most rows into the column store, leave a tail in the delta
	// so the scan unions both formats.
	if _, err := e.Merge("t"); err != nil {
		t.Fatal(err)
	}
	tx = e.Begin()
	for i := n; i < n+500; i++ {
		if err := tx.Insert("t", types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 100))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestScanParallelismOption: a Parallelism>1 engine must return exactly
// the serial engine's scan results and ScanStats through ScanCtx. The
// callback's non-atomic counters rely on ScanCtx funnelling the morsel
// workers; under -race that funnel is what this test guards. The second
// input churns the delta tail (one UPDATE, one DELETE) and pins the
// delta half of RowsScanned: every visible delta row examined counts,
// not only the matches.
func TestScanParallelismOption(t *testing.T) {
	type result struct {
		rows  int
		sum   int64
		stats colstore.ScanStats
	}
	run := func(par int, churn bool) result {
		e := buildParallelEngine(t, par)
		defer e.Close()
		if churn {
			tx := e.Begin()
			if err := tx.Update("t", types.Row{types.NewInt(10_001)}, types.Row{types.NewInt(10_001), types.NewInt(7)}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Delete("t", types.Row{types.NewInt(10_002)}); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		tx := e.Begin()
		defer tx.Abort()
		var r result
		stats, err := tx.ScanCtx(context.Background(), "t", []int{1}, []colstore.Predicate{
			{Col: 1, Op: colstore.OpLt, Val: types.NewInt(50)},
		}, func(b *types.Batch) bool {
			c := b.Cols[0]
			for i := 0; i < b.Len(); i++ {
				phys := b.RowIdx(i)
				r.rows++
				r.sum += c.Ints[phys]
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		r.stats = stats
		if stats.RowsMatched != r.rows {
			t.Errorf("parallelism=%d churn=%v: RowsMatched %d != delivered %d", par, churn, stats.RowsMatched, r.rows)
		}
		// v = id % 100 spans every zone, so no cold zone is pruned and
		// the cold half scans all its rows; the delta half must add
		// every visible delta row.
		tbl, _ := e.Table("t")
		deltaVisible := 0
		tbl.delta.Scan(tx.ReadTS(), tx.ID(), func(types.Row) bool { deltaVisible++; return true })
		if want := tbl.cold.NumRows() + deltaVisible; stats.RowsScanned != want {
			t.Errorf("parallelism=%d churn=%v: RowsScanned %d, want %d cold + %d visible delta rows",
				par, churn, stats.RowsScanned, tbl.cold.NumRows(), deltaVisible)
		}
		return r
	}
	for _, churn := range []bool{false, true} {
		serial := run(1, churn)
		for _, par := range []int{2, 4} {
			got := run(par, churn)
			if got != serial {
				t.Errorf("parallelism=%d churn=%v: %+v != serial %+v", par, churn, got, serial)
			}
		}
		if serial.rows == 0 {
			t.Fatal("scan matched nothing; fixture broken")
		}
	}
}

func TestScanOperatorUnderParallelism(t *testing.T) {
	sumVia := func(par int) (int64, int) {
		e := buildParallelEngine(t, par)
		defer e.Close()
		tx := e.Begin()
		defer tx.Abort()
		op, err := tx.ScanOperator(context.Background(), "t", []int{0, 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum, n, err := exec.SumInt64(op, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sum, n
	}
	s1, n1 := sumVia(1)
	s4, n4 := sumVia(4)
	if s1 != s4 || n1 != n4 {
		t.Fatalf("ScanOperator parallel (%d,%d) != serial (%d,%d)", s4, n4, s1, n1)
	}
	if n1 != 10_500 {
		t.Fatalf("rows = %d, want 10500 (%s)", n1, "cold + delta")
	}
}

// Aggregation through the typed path over a parallel scan: the whole
// E10-style pipeline against live storage.
func TestTypedAggregateOverParallelScan(t *testing.T) {
	e := buildParallelEngine(t, 4)
	defer e.Close()
	tx := e.Begin()
	defer tx.Abort()
	op, err := tx.ScanOperator(context.Background(), "t", []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := exec.NewHashAggregate(op,
		[]exec.Expr{&exec.ColRef{Idx: 0, Name: "v"}}, []string{"v"},
		[]exec.AggSpec{{Func: exec.AggCountStar, Name: "n"}})
	rows, err := exec.Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("groups = %d, want 100", len(rows))
	}
	total := int64(0)
	for _, r := range rows {
		total += r[1].I
	}
	if total != 10_500 {
		t.Fatalf("total count = %d, want 10500", total)
	}
}
