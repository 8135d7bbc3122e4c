package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"repro/client"
	"repro/db"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage/colstore"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The layer ladder times calls into each module's public functions, in
// process, on its own copy of the CH dataset: fixed counts, the median
// of ladderReps repetitions. Its figures pair with slices of the
// end-to-end latencies; the budget lines subtract them.

const ladderReps = 5

// timed is one ladder call; it returns the part of its time that
// counts.
type timed func(i int) (time.Duration, error)

// whole counts all of f's time.
func whole(f func(i int) error) timed {
	return func(i int) (time.Duration, error) {
		start := time.Now()
		err := f(i)
		return time.Since(start), err
	}
}

// perCall runs f n times, ladderReps times over, and returns the
// median time of one call.
func perCall(n int, f timed) (time.Duration, error) {
	var reps []float64
	for r := 0; r < ladderReps; r++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			d, err := f(r*n + i)
			if err != nil {
				return 0, err
			}
			sum += d
		}
		reps = append(reps, float64(sum)/float64(n))
	}
	return time.Duration(median(reps)), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// mrows is millions of rows per second.
func mrows(rows int, d time.Duration) float64 { return float64(rows) / us(d) }

type ladder struct {
	out map[string]float64
	err error
}

// step times f and stores conv of the per-call time under name.
func (l *ladder) step(name string, n int, conv func(time.Duration) float64, f timed) {
	if l.err != nil {
		return
	}
	d, err := perCall(n, f)
	if err != nil {
		l.err = fmt.Errorf("ladder %s: %w", name, err)
		return
	}
	l.out[name] = conv(d)
}

func runLadder(cfg runConfig) (map[string]float64, error) {
	dir, err := os.MkdirTemp(cfg.tmpRoot, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sc := scaleCH4
	if cfg.smoke {
		sc = scaleSmoke
	}
	data := genCH(sc, cfg.seed)
	// No merge daemon: the ladder decides when deltas merge.
	d, err := db.Open(db.Options{Dir: dir + "/db"})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	e := d.Engine()
	schemas := chSchemas()
	for _, name := range chTables {
		if _, err := e.CreateTable(name, schemas[name]); err != nil {
			return nil, err
		}
	}
	ld := &loader{e: e}
	data.rows(ld.insert)
	if ld.commit(); ld.err != nil {
		return nil, ld.err
	}

	ctx := context.Background()
	l := &ladder{out: map[string]float64{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	custKey := func() types.Row {
		return types.Row{iv(int64(1 + rng.Intn(sc.Warehouses))), iv(int64(1 + rng.Intn(sc.Districts))), iv(int64(1 + rng.Intn(sc.Customers)))}
	}
	get := func(int) error {
		tx := e.Begin()
		defer tx.Abort()
		if _, ok, err := tx.Get("customer", custKey()); err != nil || !ok {
			return fmt.Errorf("get: found=%v err=%v", ok, err)
		}
		return nil
	}
	scan := func(want int, preds ...colstore.Predicate) func(int) error {
		return func(int) error {
			tx := e.Begin()
			defer tx.Abort()
			n := 0
			_, err := tx.ScanCtx(ctx, "order_line", []int{6, 7}, preds, func(b *types.Batch) bool {
				n += b.Len()
				return true
			})
			if err == nil && n != want {
				err = fmt.Errorf("scan saw %d rows, want %d", n, want)
			}
			return err
		}
	}
	lines := len(data.lines)
	late := 0
	for _, ln := range data.lines {
		if ln.o > int64(sc.Orders/2) {
			late++
		}
	}
	perScan := func(rows int) func(time.Duration) float64 {
		return func(d time.Duration) float64 { return mrows(rows, d) }
	}

	// Unmerged: everything is in the delta.
	l.step("core.get_delta_us", 2000, us, whole(get))
	l.step("core.scan_delta_mrows_s", 1, perScan(lines), whole(scan(lines)))
	if l.err == nil {
		start := time.Now()
		if _, err := e.Merge("order_line"); err != nil {
			return nil, err
		}
		l.out["core.merge_mrows_s"] = mrows(lines, time.Since(start))
		if err := mergeAll(e, chTables); err != nil {
			return nil, err
		}
	}
	// Merged: everything is in column segments.
	l.step("core.get_us", 2000, us, whole(get))
	l.step("core.scan_mrows_s", 1, perScan(lines), whole(scan(lines)))
	l.step("core.scan_filtered_mrows_s", 1, perScan(lines),
		whole(scan(late, colstore.Predicate{Col: 2, Op: colstore.OpGt, Val: iv(int64(sc.Orders / 2))})))

	// Writes: history is empty and nothing reads it back.
	hist := int64(0)
	histRow := func() types.Row {
		hist++
		return types.Row{iv(hist), iv(1), iv(1), iv(1), fv(1), iv(hist)}
	}
	var tx *core.Tx
	l.step("core.insert_us", 2000, us, whole(func(int) error {
		if tx == nil {
			tx = e.Begin()
		}
		return tx.Insert("history", histRow())
	}))
	if tx != nil {
		if _, err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	// commit counts Tx.Commit alone.
	commit := func(e *core.Engine) timed {
		return func(int) (time.Duration, error) {
			tx := e.Begin()
			if err := tx.Insert("history", histRow()); err != nil {
				return 0, err
			}
			start := time.Now()
			_, err := tx.Commit()
			return time.Since(start), err
		}
	}
	// One committer: enqueue, the group window and one fsync each.
	l.step("core.commit_group_us", 20, us, commit(e))
	async, err := core.NewEngine(core.Options{Dir: dir + "/async", Sync: core.SyncAsync})
	if err != nil {
		return nil, err
	}
	defer async.Close()
	if _, err := async.CreateTable("history", schemas["history"]); err != nil {
		return nil, err
	}
	l.step("core.commit_async_us", 2000, us, commit(async))

	// db: the statement layer without the wire.
	read, err := d.Prepare(ctx, readSQL)
	if err != nil {
		return nil, err
	}
	ins, err := d.Prepare(ctx, payHistorySQL)
	if err != nil {
		return nil, err
	}
	l.step("db.prepare_hit_us", 2000, us, whole(func(int) error {
		_, err := d.Prepare(ctx, readSQL)
		return err
	}))
	l.step("db.point_select_us", 200, us, whole(func(int) error {
		k := custKey()
		var bal float64
		return read.QueryRow(ctx, k[0].I, k[1].I, k[2].I).Scan(&bal)
	}))
	l.step("db.insert_commit_us", 20, us, whole(func(int) error {
		hist++
		_, err := ins.Exec(ctx, hist, 1, 1, 1, 1.0, hist)
		return err
	}))

	// sql: parse alone, then parse and plan.
	for _, s := range []struct{ name, text string }{{"point", readSQL}, {"q05", chQueries[4]}} {
		l.step("sql.parse_"+s.name+"_us", 500, us, whole(func(int) error {
			_, err := sql.Parse(s.text)
			return err
		}))
		l.step("sql.prepare_"+s.name+"_us", 200, us, whole(func(int) error {
			_, err := sql.Prepare(e, s.text)
			return err
		}))
	}

	// exec: whole operator chains through db.Query, batches drained.
	query := func(q int) func(int) error {
		return func(int) error {
			rows, err := d.Query(ctx, chQueries[q-1])
			if err != nil {
				return err
			}
			defer rows.Close()
			for {
				if b, err := rows.NextBatch(); err != nil || b == nil {
					return err
				}
			}
		}
	}
	l.step("exec.agg_mrows_s", 1, perScan(lines), whole(query(1)))
	l.step("exec.join_mrows_s", 1, perScan(lines), whole(query(5)))
	l.step("exec.topk_ms", 1, ms, whole(query(3)))

	l.wireSteps()
	l.schedStep()
	l.rttStep(d)
	l.walSteps(dir + "/wal")

	if l.err == nil {
		start := time.Now()
		if _, err := d.Checkpoint(ctx); err != nil {
			return nil, err
		}
		l.out["core.checkpoint_ms"] = ms(time.Since(start))
	}
	return l.out, l.err
}

// wireSteps times the codec on a 3-integer Execute frame and a
// 256-row, 4-column RowBatch frame.
func (l *ladder) wireSteps() {
	var enc wire.Enc
	execute := func() {
		enc.Reset()
		enc.U32(7)
		enc.U16(3)
		for _, v := range []int64{3, 7, 211} {
			enc.Value(iv(v))
		}
	}
	batch := func() {
		enc.Reset()
		enc.U32(256)
		for i := 0; i < 256; i++ {
			enc.Value(iv(int64(i)))
			enc.Value(sv("host-007"))
			enc.Value(fv(float64(i) * 1.5))
			enc.Value(iv(int64(i) * 1000))
		}
	}
	decode := func(values int) func(int) error {
		return func(int) error {
			d := wire.NewDec(enc.B)
			d.U32()
			if values == 3 {
				d.U16()
			}
			for i := 0; i < values; i++ {
				d.Value()
			}
			return d.Err()
		}
	}
	ns := func(d time.Duration) float64 { return float64(d) }
	l.step("wire.encode_execute_ns", 20000, ns, whole(func(int) error { execute(); return nil }))
	l.step("wire.decode_execute_ns", 20000, ns, whole(decode(3)))
	l.step("wire.encode_rowbatch_us", 200, us, whole(func(int) error { batch(); return nil }))
	l.step("wire.decode_rowbatch_us", 200, us, whole(decode(256*4)))
}

// schedStep times handing a no-op to an idle worker pool and waiting
// for it.
func (l *ladder) schedStep() {
	m := sched.New(sched.Config{})
	defer m.Close()
	l.step("sched.handoff_us", 5000, us, whole(func(int) error { return m.Run(sched.OLTP, func() {}) }))
}

// rttStep times a Stats frame round trip: loopback, framing and the
// session loop, no lane and no statement.
func (l *ladder) rttStep(d *db.DB) {
	if l.err != nil {
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.err = err
		return
	}
	srv := server.New(d, server.Config{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(context.Background(), ln) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := client.Dial(ctx, ln.Addr().String())
	if err == nil {
		l.step("client.stats_rtt_us", 500, us, whole(func(int) error {
			_, err := conn.Stats()
			return err
		}))
		conn.Close()
	} else {
		l.err = err
	}
	if err := srv.Shutdown(ctx); err != nil && l.err == nil {
		l.err = err
	}
	<-served
}

// walSteps times an asynchronous append, and a flush to disk after one
// append: the sandbox's fsync cost.
func (l *ladder) walSteps(dir string) {
	if l.err != nil {
		return
	}
	log, err := wal.OpenLog(dir, wal.LogOptions{Mode: wal.SyncAsync})
	if err != nil {
		l.err = err
		return
	}
	rec := wal.Record{TxnID: 1, Kind: wal.KindInsert, Table: "history",
		Row: types.Row{iv(1), iv(1), iv(1), iv(1), fv(1), iv(1)}}
	l.step("wal.append_us", 5000, us, whole(func(int) error {
		_, err := log.Append(rec)
		return err
	}))
	l.step("wal.fsync_us", 20, us, func(int) (time.Duration, error) {
		if _, err := log.Append(rec); err != nil {
			return 0, err
		}
		start := time.Now()
		err := log.Sync()
		return time.Since(start), err
	})
	if err := log.Close(); err != nil && l.err == nil {
		l.err = err
	}
}
