package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/client"
)

// runner is one closed-loop client: it sends its next request when the
// previous reply has arrived, until the window closes.
type runner interface {
	run(rec *recorder) error
	acked() acks
}

func (c *oltpClient) acked() acks { return c.acks }

// analystClient cycles the 17 queries as ad-hoc text and drains every
// row. One pass is 17 consecutive queries.
type analystClient struct {
	conn    *client.Conn
	startAt int
	// wantRows, when set, is the row count each query must return (the
	// database does not change under olap).
	wantRows *[17]int
}

func (c *analystClient) acked() acks { return acks{} }

func (c *analystClient) run(rec *recorder) error {
	var passStart time.Time
	for i := 0; time.Now().Before(rec.win.t1); i++ {
		q := (c.startAt + i) % 17
		rec.attempted++
		start := time.Now()
		if i%17 == 0 {
			passStart = start
			rec.beginOp(clPass, start)
		}
		rows, err := c.conn.Query(chQueries[q])
		if err != nil {
			if isRefusal(err) {
				// A refused query voids its pass.
				rec.failed++
				rec.endOp(time.Now())
				i += 16 - i%17
				continue
			}
			return fmt.Errorf("q%02d: %w", q+1, err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			return fmt.Errorf("q%02d: %w", q+1, err)
		}
		end := time.Now()
		if c.wantRows != nil && n != c.wantRows[q] {
			return fmt.Errorf("q%02d returned %d rows, want %d", q+1, n, c.wantRows[q])
		}
		rec.add(clQuery+class(q), start, end, rows.Result())
		rec.stmtSpan(classNames[clQuery+class(q)], start, end, rows.Result())
		rec.opDone(end)
		if i%17 == 16 {
			rec.add(clPass, passStart, end, client.Result{})
			rec.endOp(end)
		}
	}
	rec.endOp(time.Now())
	return nil
}

// queryAll runs one SELECT and returns its rows.
func queryAll(conn *client.Conn, sql string, args ...any) ([][]any, error) {
	rows, err := conn.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	return drain(rows)
}

// recentReadings is how many of the newest readings are kept to check
// the dashboard against: several times its look-back.
const recentReadings = 1 << 16

// stream is the state the writer and the dashboard share: the newest
// acknowledged timestamp, and the newest readings for the final check.
type stream struct {
	gen     *metricsGen
	ackedTS atomic.Int64
	recent  []reading // ring, written by the loader and then the writer only
	n       int
}

func (s *stream) keep(r reading) {
	if s.recent == nil {
		s.recent = make([]reading, recentReadings)
	}
	s.recent[s.n%recentReadings] = r
	s.n++
}

// writerClient inserts the telemetry stream, 50 readings a statement,
// autocommit.
type writerClient struct {
	st   *client.Stmt
	s    *stream
	acks acks
}

func (c *writerClient) acked() acks { return c.acks }

func (c *writerClient) run(rec *recorder) error {
	var batch [ingestBatch]reading
	args := make([]any, 0, 4*ingestBatch)
	for time.Now().Before(rec.win.t1) {
		args = args[:0]
		for i := range batch {
			r := c.s.gen.next()
			batch[i] = r
			args = append(args, r.ts, hostNames[r.host], metricNames[r.metric], r.value)
		}
		rec.attempted++
		start := time.Now()
		rec.beginOp(clInsert, start)
		res, err := c.st.Exec(args...)
		end := time.Now()
		switch {
		case err == nil && res.RowsAffected == ingestBatch:
			for _, r := range batch {
				c.s.keep(r)
			}
			c.acks.rows += ingestBatch
			c.s.ackedTS.Store(batch[ingestBatch-1].ts)
			rec.add(clInsert, start, end, res)
			rec.stmtSpan("insert", start, end, res)
			rec.opDone(end)
		case err == nil:
			return fmt.Errorf("insert wrote %d rows, want %d", res.RowsAffected, ingestBatch)
		case isRefusal(err):
			// The refused batch's timestamps are not reused, so the
			// stream stays append-only.
			rec.failed++
		default:
			return fmt.Errorf("insert: %w", err)
		}
		rec.endOp(end)
	}
	return nil
}

// dashClient repeats the dashboard query over the newest ten seconds
// of stream time.
type dashClient struct {
	st *client.Stmt
	s  *stream
}

func (c *dashClient) acked() acks { return acks{} }

func (c *dashClient) run(rec *recorder) error {
	for time.Now().Before(rec.win.t1) {
		rec.attempted++
		start := time.Now()
		rec.beginOp(clDash, start)
		rows, err := c.st.Query(c.s.ackedTS.Load() - dashWindowUS)
		if err != nil {
			rec.endOp(time.Now())
			if isRefusal(err) {
				rec.failed++
				continue
			}
			return fmt.Errorf("dashboard: %w", err)
		}
		got, err := drain(rows)
		if err != nil {
			return fmt.Errorf("dashboard: %w", err)
		}
		end := time.Now()
		// The writer is running, so the exact answer is unknown; the
		// shape is not. The exact check follows when it has stopped.
		if len(got) == 0 || len(got) > metricsHosts {
			return fmt.Errorf("dashboard returned %d hosts", len(got))
		}
		rec.add(clDash, start, end, rows.Result())
		rec.stmtSpan("dash", start, end, rows.Result())
		rec.endOp(end)
		rec.opDone(end)
	}
	return nil
}

// verifyDashboard checks the dashboard query exactly, once the writer
// has stopped.
func verifyDashboard(st *client.Stmt, s *stream) error {
	from := s.ackedTS.Load() - dashWindowUS
	rows, err := st.Query(from)
	if err != nil {
		return fmt.Errorf("dashboard: %w", err)
	}
	got, err := drain(rows)
	if err != nil {
		return fmt.Errorf("dashboard: %w", err)
	}
	recent := s.recent
	if s.n < recentReadings {
		recent = recent[:s.n]
	}
	if oldest := recent[s.n%len(recent)]; s.n >= recentReadings && oldest.ts >= from {
		return fmt.Errorf("dashboard: the kept readings do not cover the look-back")
	}
	if err := dashReference(recent, from).check(got); err != nil {
		return fmt.Errorf("dashboard: %w", err)
	}
	return nil
}
