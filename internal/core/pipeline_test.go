package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/types"
)

// testParallelism is the worker count the parallel-pipeline suite runs
// at; override with OADB_TEST_PARALLELISM (CI races the suite at 4).
func testParallelism() int {
	if s := os.Getenv("OADB_TEST_PARALLELISM"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 4
}

// buildMixedTable loads a table whose rows straddle the formats: most
// merged into the column store (several merge rounds → several
// segments), a tail left in the delta, some rows deleted from both.
func buildMixedTable(t *testing.T, e *Engine, rows int) {
	t.Helper()
	schema := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "grp", Type: types.Int64},
		{Name: "v", Type: types.Int64},
		{Name: "f", Type: types.Float64},
	}, "id")
	if _, err := e.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	tx := e.Begin()
	for i := 0; i < rows; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(37))),
			types.NewInt(int64(rng.Intn(2000) - 1000)),
			types.NewFloat(float64(rng.Intn(1000)) / 4),
		}
		if rng.Intn(29) == 0 {
			row[1] = types.NewNull(types.Int64) // NULL group keys
		}
		if err := tx.Insert("t", row); err != nil {
			t.Fatal(err)
		}
		if (i+1)%(rows/4) == 0 {
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if i < rows*3/4 { // leave the last quarter in the delta
				if _, err := e.Merge("t"); err != nil {
					t.Fatal(err)
				}
			}
			tx = e.Begin()
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Delete a scattering of rows from both formats.
	tx = e.Begin()
	for i := 0; i < rows; i += 97 {
		if err := tx.Delete("t", types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func collectSorted(t *testing.T, op exec.Operator) []string {
	t.Helper()
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for c, v := range r {
			if v.Null {
				parts[c] = "∅"
			} else if v.Typ == types.Float64 {
				parts[c] = fmt.Sprintf("%.6g", v.F)
			} else {
				parts[c] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestParallelPipelineParityMixed: grouped aggregation, join build, and
// sort through MarkPipeline over a real delta+cold table must equal the
// serial plans, with NULL keys and deletes in play.
func TestParallelPipelineParityMixed(t *testing.T) {
	const rows = 20_000
	workers := testParallelism()
	serialE, err := NewEngine(Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer serialE.Close()
	parE, err := NewEngine(Options{Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer parE.Close()
	buildMixedTable(t, serialE, rows)
	buildMixedTable(t, parE, rows)

	aggOver := func(e *Engine, par int) []string {
		tx := e.Begin()
		defer tx.Abort()
		ts, err := tx.ScanOperator(context.Background(), "t", []int{1, 2, 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		in := exec.MarkPipeline(ts, par)
		agg := exec.NewHashAggregate(in,
			[]exec.Expr{&exec.ColRef{Idx: 0, Name: "grp"}}, nil,
			[]exec.AggSpec{
				{Func: exec.AggCountStar, Name: "n"},
				{Func: exec.AggSum, Arg: &exec.ColRef{Idx: 1}, Name: "sv"},
				{Func: exec.AggMin, Arg: &exec.ColRef{Idx: 1}, Name: "minv"},
				{Func: exec.AggMax, Arg: &exec.ColRef{Idx: 2}, Name: "maxf"},
			})
		return collectSorted(t, agg)
	}
	serialAgg := aggOver(serialE, 1)
	parAgg := aggOver(parE, workers)
	if len(serialAgg) == 0 {
		t.Fatal("fixture produced no groups")
	}
	if fmt.Sprint(serialAgg) != fmt.Sprint(parAgg) {
		t.Fatalf("grouped agg parity failed:\nserial: %v\nparallel: %v", serialAgg, parAgg)
	}

	sortOver := func(e *Engine, par int) []string {
		tx := e.Begin()
		defer tx.Abort()
		ts, err := tx.ScanOperator(context.Background(), "t", []int{0, 1, 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		s := exec.NewSort(exec.MarkPipeline(ts, par), []exec.SortKey{
			{E: &exec.ColRef{Idx: 1}},
			{E: &exec.ColRef{Idx: 0}, Desc: true},
		})
		return collectSorted(t, s)
	}
	if fmt.Sprint(sortOver(serialE, 1)) != fmt.Sprint(sortOver(parE, workers)) {
		t.Fatal("sort parity failed")
	}
}

// TestTableScanScanWorkersMatchesSerial: the parallel-consume mode
// delivers exactly the rows the channel mode does (cold + delta), with
// pushed-down predicates applied.
func TestTableScanScanWorkersMatchesSerial(t *testing.T) {
	e, err := NewEngine(Options{Parallelism: testParallelism()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	buildMixedTable(t, e, 10_000)
	tx := e.Begin()
	defer tx.Abort()

	ts, err := tx.ScanOperator(context.Background(), "t", []int{0, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var serialSum, serialN int64
	for {
		b, err := ts.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			serialSum += b.Cols[1].Ints[b.RowIdx(i)]
			serialN++
		}
	}

	ts2, err := tx.ScanOperator(context.Background(), "t", []int{0, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	// workers <= 0 uses the engine's configured parallelism.
	for _, workers := range []int{testParallelism(), 0} {
		var parSum, parN atomic.Int64
		if err := ts2.ScanWorkers(workers, func(w int, b *types.Batch) bool {
			var s, n int64
			for i := 0; i < b.Len(); i++ {
				s += b.Cols[1].Ints[b.RowIdx(i)]
				n++
			}
			parSum.Add(s)
			parN.Add(n)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if parSum.Load() != serialSum || parN.Load() != serialN {
			t.Fatalf("ScanWorkers(%d) (%d rows, sum %d) != serial (%d rows, sum %d)",
				workers, parN.Load(), parSum.Load(), serialN, serialSum)
		}
	}

	// Early stop: a false return ends the scan after each worker's
	// first batch at most.
	var stopped atomic.Int64
	if err := ts2.ScanWorkers(testParallelism(), func(w int, b *types.Batch) bool {
		stopped.Add(1)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n := stopped.Load(); n == 0 || n > int64(testParallelism()) {
		t.Fatalf("early stop delivered %d batches, want 1..%d", n, testParallelism())
	}
}

// TestPipelineCancelMidScan: cancelling the bound context mid-pipeline
// must surface context.Canceled, stop every morsel worker, and leave no
// goroutines behind — the scan returns only after its workers joined.
func TestPipelineCancelMidScan(t *testing.T) {
	workers := testParallelism()
	e, err := NewEngine(Options{Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	buildMixedTable(t, e, 30_000)
	before := runtime.NumGoroutine()

	for round := 0; round < 5; round++ {
		tx := e.Begin()
		ctx, cancel := context.WithCancel(context.Background())
		ts, err := NewTableScan(e, "t", []int{1, 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts.Bind(tx, ctx)
		var delivered atomic.Int64
		err = ts.ScanWorkers(workers, func(w int, b *types.Batch) bool {
			if delivered.Add(1) == 2 {
				cancel() // cancel mid-flight, while other workers run
			}
			return true
		})
		// The fixture is large enough that cancellation lands before the
		// scan drains; if a tiny machine finished first, err is nil.
		if err != nil && err != context.Canceled {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
		if delivered.Load() == 0 {
			t.Fatal("no batches delivered before cancel")
		}
		cancel()
		ts.Close()
		tx.Abort()
	}

	// Workers must have exited (ScanWorkers is synchronous); allow the
	// runtime a moment to retire finished goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelineCancelThroughAggregate: cancellation propagates out of
// the breaker merge — the aggregate returns the context error, not a
// partial result.
func TestPipelineCancelThroughAggregate(t *testing.T) {
	workers := testParallelism()
	e, err := NewEngine(Options{Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	buildMixedTable(t, e, 30_000)

	tx := e.Begin()
	defer tx.Abort()
	ctx, cancel := context.WithCancel(context.Background())
	ts, err := NewTableScan(e, "t", []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts.Bind(tx, ctx)
	defer ts.Close()
	cancel() // cancelled before the drain: deterministic on any machine
	agg := exec.NewHashAggregate(exec.MarkPipeline(ts, workers),
		[]exec.Expr{&exec.ColRef{Idx: 0}}, nil,
		[]exec.AggSpec{{Func: exec.AggCountStar, Name: "n"}})
	if _, err := agg.Next(); err != context.Canceled {
		t.Fatalf("agg over cancelled pipeline: err = %v, want context.Canceled", err)
	}
}
