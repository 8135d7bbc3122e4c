package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/storage/colstore"
	"repro/internal/types"
)

// TableScan is the streaming bridge from storage into the vectorized
// pipeline: an exec.Operator that delivers the visible rows of one
// table batch-at-a-time from a producer goroutine, instead of
// materializing the whole scan up front.
//
// A TableScan is compiled once (table, projection, predicate shape) and
// rebound per execution: Bind attaches the transaction snapshot and a
// context, SetPred fills parameter-valued predicates. This is what lets
// a prepared statement reuse one operator tree across executions.
//
// Both consumption modes run the one scan driver, scanTable, whose
// batches are transient at every parallelism: Next hands out copies
// detached before they cross the producer's channel, ScanWorkers hands
// the workers' own batches to fn, valid only until fn returns.
//
// Lifecycle: Next starts the producer lazily on first call. The
// producer holds the table's storage read-latch for the duration of the
// scan, so consumers that stop early (LIMIT, cancelled context,
// abandoned cursor) MUST call Close (or Reset) to release it; draining
// to end-of-stream also releases it. Close is idempotent and waits for
// the producer — and any morsel workers under it — to exit.
//
// Cancellation: when the bound context is cancelled, Next returns
// ctx.Err() within one batch boundary and the producer unwinds (morsel
// workers observe the same signal between zones).
type TableScan struct {
	engine *Engine
	tbl    *Table
	proj   []int
	schema *types.Schema
	preds  []colstore.Predicate

	tx  *Tx
	ctx context.Context

	run *scanRun
	err error
	// Stats holds the pruning statistics of the last completed scan.
	Stats colstore.ScanStats
	// estRows is the planner's post-pushdown cardinality estimate for
	// this scan (negative = unset), rendered by DescribePlan so EXPLAIN
	// shows what drove join ordering.
	estRows float64
}

// scanRun is the per-execution state of one producer goroutine.
type scanRun struct {
	ch       chan *types.Batch
	errc     chan error
	done     chan struct{} // closed to cancel the producer
	finished chan struct{} // closed when the producer has exited
	once     sync.Once
}

func (r *scanRun) cancel() { r.once.Do(func() { close(r.done) }) }

// NewTableScan compiles a scan leaf for the named table. The returned
// operator is unbound: call Bind before Next.
func NewTableScan(e *Engine, table string, proj []int, preds []colstore.Predicate) (*TableScan, error) {
	tbl, err := e.Table(table)
	if err != nil {
		return nil, err
	}
	if proj == nil {
		proj = make([]int, len(tbl.schema.Cols))
		for i := range proj {
			proj[i] = i
		}
	}
	return &TableScan{
		engine:  e,
		tbl:     tbl,
		proj:    proj,
		schema:  projectSchema(tbl.schema, proj),
		preds:   preds,
		estRows: -1,
	}, nil
}

// SetEstRows annotates the scan with the planner's post-pushdown
// cardinality estimate (shown by DescribePlan).
func (t *TableScan) SetEstRows(rows float64) { t.estRows = rows }

// Bind attaches the transaction whose snapshot the scan reads and the
// context that cancels it. It resets any previous execution.
func (t *TableScan) Bind(tx *Tx, ctx context.Context) {
	t.Reset()
	t.tx = tx
	t.ctx = ctx
}

// SetPred overwrites the value of pushed-down predicate i (parameter
// rebinding for prepared statements).
func (t *TableScan) SetPred(i int, v types.Value) { t.preds[i].Val = v }

// NumPreds returns the number of pushed-down predicates.
func (t *TableScan) NumPreds() int { return len(t.preds) }

// Schema implements exec.Operator.
func (t *TableScan) Schema() *types.Schema { return t.schema }

// Next implements exec.Operator: it returns the next batch of visible
// rows, nil at end of stream, or the context's error after
// cancellation. The returned batch is owned by the caller until the
// next call to Next.
func (t *TableScan) Next() (*types.Batch, error) {
	if t.err != nil {
		return nil, t.err
	}
	if t.run == nil {
		if t.tx == nil {
			t.err = fmt.Errorf("core: TableScan on %q is not bound to a transaction", t.tbl.name)
			return nil, t.err
		}
		t.start()
	}
	var ctxDone <-chan struct{}
	if t.ctx != nil {
		ctxDone = t.ctx.Done()
	}
	select {
	case b, ok := <-t.run.ch:
		if ok {
			return b, nil
		}
		// Producer finished: surface a scan error (2PL lock timeout) or
		// the cancellation that stopped it.
		select {
		case err := <-t.run.errc:
			t.err = err
			return nil, err
		default:
		}
		if t.ctx != nil && t.ctx.Err() != nil {
			t.err = t.ctx.Err()
			return nil, t.err
		}
		return nil, nil
	case <-ctxDone:
		t.stopRun()
		t.err = t.ctx.Err()
		return nil, t.err
	}
}

// start launches the producer goroutine for one execution.
func (t *TableScan) start() {
	run := &scanRun{
		ch:       make(chan *types.Batch, 1),
		errc:     make(chan error, 1),
		done:     make(chan struct{}),
		finished: make(chan struct{}),
	}
	t.run = run
	tx, ctx := t.tx, t.ctx
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	// Funnel context cancellation into the run's done channel so the
	// storage layer watches a single signal.
	if ctxDone != nil {
		go func() {
			select {
			case <-ctxDone:
				run.cancel()
			case <-run.finished:
			}
		}()
	}
	go func() {
		defer close(run.ch)
		defer close(run.finished)
		// Batches are transient (valid only during the callback):
		// detach each before it crosses the channel. The channel send
		// already serializes the workers, so no funnel is needed.
		stats, err := tx.scan(t.tbl, t.proj, t.preds, t.engine.opts.Parallelism, run.done, func(_ int, b *types.Batch) bool {
			select {
			case run.ch <- b.Copy():
				return true
			case <-run.done:
				return false
			}
		})
		if err != nil {
			run.errc <- err
			return
		}
		t.Stats = stats
	}()
}

// DescribePlan implements exec.PlanDescriber: one line naming the
// table, projection width, pushed-down predicates, and — when the scan
// has run — the pruning statistics of the last execution, so EXPLAIN
// output shows whether zone maps actually skipped work.
func (t *TableScan) DescribePlan() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TableScan(%s cols=%d", t.tbl.name, len(t.proj))
	if len(t.preds) > 0 {
		sb.WriteString(" preds=[")
		for i, p := range t.preds {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			name := t.tbl.schema.Cols[p.Col].Name
			switch p.Op {
			case colstore.OpIsNull, colstore.OpIsNotNull:
				fmt.Fprintf(&sb, "%s %s", name, p.Op)
			default:
				fmt.Fprintf(&sb, "%s%s%s", name, p.Op, p.Val)
			}
		}
		sb.WriteString("]")
	}
	if t.estRows >= 0 {
		fmt.Fprintf(&sb, " est=%d", int64(t.estRows+0.5))
	}
	if s := t.Stats; s.SegmentsTotal > 0 || s.RowsScanned > 0 {
		fmt.Fprintf(&sb, " last[segments=%d/%d pruned zones=%d/%d pruned rows=%d matched=%d decoded=%d]",
			s.SegmentsPruned, s.SegmentsTotal, s.ZonesPruned, s.ZonesTotal,
			s.RowsScanned, s.RowsMatched, s.RowsDecoded)
	}
	sb.WriteString(")")
	return sb.String()
}

// MaxWorkers implements exec.ParallelSource: the engine's configured
// parallelism (the ceiling for pipeline fan-out over this scan).
func (t *TableScan) MaxWorkers() int { return t.engine.opts.Parallelism }

// ScanWorkers implements exec.ParallelSource: it runs one execution of
// the scan synchronously, delivering batches CONCURRENTLY to fn from up
// to workers morsel goroutines (worker ids 0..workers-1; delta rows
// arrive on worker 0 after the cold workers join). Unlike Next, no
// producer goroutine or channel is involved — the exec pipeline driver
// consumes each batch on the worker that produced it. Batches are
// transient: valid only until fn returns. workers <= 0 uses the
// engine's configured parallelism. fn returning false stops the scan.
// All workers have exited when ScanWorkers returns; cancellation of the
// bound context surfaces as its ctx.Err().
func (t *TableScan) ScanWorkers(workers int, fn func(worker int, b *types.Batch) bool) error {
	if t.tx == nil {
		return fmt.Errorf("core: TableScan on %q is not bound to a transaction", t.tbl.name)
	}
	// Terminate any channel-mode execution so the two consumption modes
	// never interleave on one scan.
	t.stopRun()
	var done <-chan struct{}
	if t.ctx != nil {
		done = t.ctx.Done()
	}
	stats, err := t.tx.scan(t.tbl, t.proj, t.preds, workers, done, fn)
	if err != nil {
		return err
	}
	t.Stats = stats
	if t.ctx != nil {
		return t.ctx.Err()
	}
	return nil
}

// stopRun cancels the in-flight producer (if any) and waits for it and
// its morsel workers to exit, draining undelivered batches.
func (t *TableScan) stopRun() {
	if t.run == nil {
		return
	}
	t.run.cancel()
	for range t.run.ch {
	}
	<-t.run.finished
	t.run = nil
}

// Close releases the scan's resources: it cancels the producer, waits
// for its workers to exit, and drops the execution state. Idempotent.
// It implements the optional closer interface the cursor layer uses.
func (t *TableScan) Close() error {
	t.stopRun()
	return nil
}

// Reset implements exec.Operator: it terminates any in-flight execution
// so the scan can run again against its bound transaction.
func (t *TableScan) Reset() {
	t.stopRun()
	t.err = nil
}

// ScanOperator returns an exec.Operator streaming the visible rows of a
// table at this transaction's snapshot, with optional projection and
// pushed-down predicates — a TableScan pre-bound to t and ctx (nil ctx
// means no cancellation). Callers that do not drain it to end-of-stream
// must Close it.
func (t *Tx) ScanOperator(ctx context.Context, table string, proj []int, preds []colstore.Predicate) (*TableScan, error) {
	ts, err := NewTableScan(t.engine, table, proj, preds)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		//oadb:allow-ctxscan nil ctx is the caller's explicit no-cancellation choice, not a severed chain
		ctx = context.Background()
	}
	ts.Bind(t, ctx)
	return ts, nil
}
