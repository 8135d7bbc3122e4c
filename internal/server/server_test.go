package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/db"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/wire"
)

// testServer wraps a served instance with its lifecycle.
type testServer struct {
	srv      *server.Server
	addr     string
	serveErr chan error
}

// startServer opens a database, serves it on a loopback listener, and
// registers cleanup that drains the server and closes the database.
func startServer(t *testing.T, opts db.Options, cfg server.Config) *testServer {
	t.Helper()
	d, err := db.Open(opts)
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	srv := server.New(d, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ch := make(chan error, 1)
	go func() { ch <- srv.Serve(context.Background(), ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := d.Close(); err != nil {
			t.Errorf("close db: %v", err)
		}
	})
	return &testServer{srv: srv, addr: ln.Addr().String(), serveErr: ch}
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	return c
}

func mustExec(t *testing.T, c *client.Conn, sql string, args ...any) client.Result {
	t.Helper()
	res, err := c.Exec(sql, args...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServerBasicRoundTrip(t *testing.T) {
	ts := startServer(t, db.Options{}, server.Config{})
	c := dial(t, ts.addr)
	defer c.Close()

	mustExec(t, c, "CREATE TABLE t (a INT, b VARCHAR, PRIMARY KEY (a))")
	for i := 1; i <= 3; i++ {
		res := mustExec(t, c, "INSERT INTO t (a, b) VALUES (?, ?)", i, fmt.Sprintf("row%d", i))
		if res.RowsAffected != 1 {
			t.Fatalf("insert affected %d rows, want 1", res.RowsAffected)
		}
		if res.Lane != client.LaneOLTP {
			t.Fatalf("insert ran on lane %s, want oltp", res.Lane)
		}
	}

	// Point lookup rides the OLTP lane.
	rows, err := c.Query("SELECT b FROM t WHERE a = ?", 2)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var got []string
	for rows.Next() {
		var b string
		if err := rows.Scan(&b); err != nil {
			t.Fatalf("scan: %v", err)
		}
		got = append(got, b)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	if len(got) != 1 || got[0] != "row2" {
		t.Fatalf("got %v, want [row2]", got)
	}
	if res := rows.Result(); res.Lane != client.LaneOLTP {
		t.Fatalf("point lookup lane = %s, want oltp", res.Lane)
	}

	// Aggregate rides the OLAP lane.
	rows, err = c.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var n int64
	for rows.Next() {
		if err := rows.Scan(&n); err != nil {
			t.Fatalf("scan: %v", err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	if n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	if res := rows.Result(); res.Lane != client.LaneOLAP {
		t.Fatalf("aggregate lane = %s, want olap", res.Lane)
	}

	// SQL errors leave the session usable.
	if _, err := c.Exec("SELECT nope FROM missing"); err == nil {
		t.Fatal("query against missing table succeeded")
	}
	var se *client.ServerError
	if _, err := c.Exec("SELECT nope FROM missing"); !errors.As(err, &se) || se.Code != wire.CodeSQL {
		t.Fatalf("want CodeSQL server error, got %v", err)
	}
	mustExec(t, c, "INSERT INTO t (a, b) VALUES (4, 'still alive')")

	// Stats round-trip.
	text, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, key := range []string{"conns_accepted", "lane_oltp_statements", "lane_olap_statements"} {
		if !strings.Contains(text, key) {
			t.Fatalf("stats text missing %q:\n%s", key, text)
		}
	}
}

func TestServerPreparedStatements(t *testing.T) {
	ts := startServer(t, db.Options{}, server.Config{})
	c := dial(t, ts.addr)
	defer c.Close()

	mustExec(t, c, "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
	ins, err := c.Prepare("INSERT INTO kv (k, v) VALUES (?, ?)")
	if err != nil {
		t.Fatalf("prepare insert: %v", err)
	}
	if ins.NumParams() != 2 || ins.IsQuery() {
		t.Fatalf("insert stmt: params=%d isQuery=%v", ins.NumParams(), ins.IsQuery())
	}
	for i := 0; i < 10; i++ {
		if _, err := ins.Exec(i, i*i); err != nil {
			t.Fatalf("exec insert %d: %v", i, err)
		}
	}
	sel, err := c.Prepare("SELECT v FROM kv WHERE k = ?")
	if err != nil {
		t.Fatalf("prepare select: %v", err)
	}
	if !sel.IsQuery() {
		t.Fatal("select stmt not marked as query")
	}
	for i := 0; i < 10; i++ {
		rows, err := sel.Query(i)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		var v int64
		for rows.Next() {
			if err := rows.Scan(&v); err != nil {
				t.Fatalf("scan: %v", err)
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("rows: %v", err)
		}
		if v != int64(i*i) {
			t.Fatalf("kv[%d] = %d, want %d", i, v, i*i)
		}
	}
	if err := ins.Close(); err != nil {
		t.Fatalf("close stmt: %v", err)
	}
	if _, err := ins.Exec(99, 99); err == nil {
		t.Fatal("exec on closed statement succeeded")
	}
	if err := sel.Close(); err != nil {
		t.Fatalf("close stmt: %v", err)
	}
}

func TestServerTxnLifecycle(t *testing.T) {
	ts := startServer(t, db.Options{}, server.Config{})
	c := dial(t, ts.addr)
	defer c.Close()

	mustExec(t, c, "CREATE TABLE t (a INT, PRIMARY KEY (a))")

	// Rolled-back work is invisible.
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO t (a) VALUES (1)")
	mustExec(t, c, "ROLLBACK")
	// Committed work persists (visible to a second session).
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO t (a) VALUES (2)")
	mustExec(t, c, "COMMIT")

	c2 := dial(t, ts.addr)
	defer c2.Close()
	rows, err := c2.Query("SELECT a FROM t WHERE a >= 0")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var got []int64
	for rows.Next() {
		var a int64
		if err := rows.Scan(&a); err != nil {
			t.Fatalf("scan: %v", err)
		}
		got = append(got, a)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("visible rows %v, want [2]", got)
	}

	// Transaction-state errors are structured and non-fatal.
	var se *client.ServerError
	if _, err := c.Exec("COMMIT"); !errors.As(err, &se) || se.Code != wire.CodeTxn {
		t.Fatalf("COMMIT outside txn: want CodeTxn, got %v", err)
	}
	mustExec(t, c, "BEGIN")
	if _, err := c.Exec("BEGIN"); !errors.As(err, &se) || se.Code != wire.CodeTxn {
		t.Fatalf("nested BEGIN: want CodeTxn, got %v", err)
	}
	mustExec(t, c, "ROLLBACK")
}

// rawSession speaks the wire protocol directly, for tests that need to
// misbehave in ways the client package refuses to.
type rawSession struct {
	nc  net.Conn
	enc wire.Enc
}

func rawDial(t *testing.T, addr string) *rawSession {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	r := &rawSession{nc: nc}
	r.enc.Reset()
	r.enc.U32(wire.Magic)
	r.enc.U16(wire.Version)
	if err := wire.WriteFrame(nc, wire.FrameHello, r.enc.B); err != nil {
		t.Fatalf("raw hello: %v", err)
	}
	typ, _, err := wire.ReadFrame(nc, 0)
	if err != nil || typ != wire.FrameHelloOK {
		t.Fatalf("raw handshake: typ=%#x err=%v", typ, err)
	}
	return r
}

// exec sends a Query frame and reads until the terminal frame.
func (r *rawSession) exec(t *testing.T, sql string) {
	t.Helper()
	r.enc.Reset()
	r.enc.Str(sql)
	r.enc.U16(0)
	if err := wire.WriteFrame(r.nc, wire.FrameQuery, r.enc.B); err != nil {
		t.Fatalf("raw send %q: %v", sql, err)
	}
	for {
		typ, payload, err := wire.ReadFrame(r.nc, 0)
		if err != nil {
			t.Fatalf("raw read after %q: %v", sql, err)
		}
		switch typ {
		case wire.FrameDone:
			return
		case wire.FrameError:
			d := wire.NewDec(payload)
			code, msg := d.U16(), d.Str()
			t.Fatalf("raw exec %q: server error %d: %s", sql, code, msg)
		}
	}
}

func TestServerAbruptDisconnectRollsBackTxn(t *testing.T) {
	ts := startServer(t, db.Options{}, server.Config{})
	admin := dial(t, ts.addr)
	defer admin.Close()
	mustExec(t, admin, "CREATE TABLE t (a INT, PRIMARY KEY (a))")

	raw := rawDial(t, ts.addr)
	raw.exec(t, "BEGIN")
	raw.exec(t, "INSERT INTO t (a) VALUES (42)")
	// Vanish without COMMIT or even Terminate.
	if err := raw.nc.Close(); err != nil {
		t.Fatalf("close raw conn: %v", err)
	}

	waitFor(t, 10*time.Second, "session cleanup", func() bool {
		return ts.srv.NumSessions() == 1 // only admin remains
	})
	// The orphaned transaction must have rolled back: its insert is
	// invisible and its locks are gone (a new writer succeeds).
	rows, err := admin.Query("SELECT a FROM t WHERE a = 42")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if rows.Next() {
		t.Fatal("uncommitted insert from dropped session is visible")
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	mustExec(t, admin, "INSERT INTO t (a) VALUES (42)")
}

func TestServerMidResultsetDisconnect(t *testing.T) {
	ts := startServer(t, db.Options{}, server.Config{})
	// Load enough data that the result stream cannot fit in socket
	// buffers — the server must hit a write error mid-stream.
	d := ts.srv.DB()
	ctx := context.Background()
	if _, err := d.Exec(ctx, "CREATE TABLE big (a INT, pad VARCHAR, PRIMARY KEY (a))"); err != nil {
		t.Fatalf("create: %v", err)
	}
	pad := strings.Repeat("x", 256)
	tx, err := d.Begin(ctx)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	for i := 0; i < 20000; i++ {
		if _, err := tx.Exec(ctx, "INSERT INTO big (a, pad) VALUES (?, ?)", i, pad); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	raw := rawDial(t, ts.addr)
	raw.enc.Reset()
	raw.enc.Str("SELECT a, pad FROM big WHERE a >= 0")
	raw.enc.U16(0)
	if err := wire.WriteFrame(raw.nc, wire.FrameQuery, raw.enc.B); err != nil {
		t.Fatalf("send query: %v", err)
	}
	// Read just the row header, then hang up mid-stream.
	if typ, _, err := wire.ReadFrame(raw.nc, 0); err != nil || typ != wire.FrameRowHeader {
		t.Fatalf("want row header, got typ=%#x err=%v", typ, err)
	}
	if err := raw.nc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	waitFor(t, 15*time.Second, "mid-stream session cleanup", func() bool {
		return ts.srv.NumSessions() == 0
	})
}

func TestServerBusyAndQueueTimeout(t *testing.T) {
	// One worker, tiny OLTP queue: a pinned task occupies the only
	// worker deterministically so queueing behavior is observable
	// without sleeps in the server.
	ts := startServer(t, db.Options{},
		server.Config{Workers: 1, OLTPQueueDepth: 1, OLAPQueueDepth: 1,
			OLTPQueueTimeout: 300 * time.Millisecond})
	c := dial(t, ts.addr)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a))")
	mustExec(t, c, "INSERT INTO t (a, b) VALUES (1, 0)")

	release, err := ts.srv.PinWorker(sched.OLTP)
	if err != nil {
		t.Fatalf("pin worker: %v", err)
	}
	defer release()
	waitFor(t, 10*time.Second, "worker occupied", func() bool {
		st := ts.srv.SchedStats(sched.OLTP)
		// CREATE + INSERT completed; the pin popped off the queue by
		// the only worker and holding it.
		return st.Submitted == 3 && st.Completed == 2 && ts.srv.QueueLen(sched.OLTP) == 0
	})

	// queued waits in the depth-1 OLTP queue until the 300ms queue
	// timeout abandons it. An abandoned task keeps its slot until a
	// worker pops it, and the only worker is pinned. The background
	// goroutine owns its connection and closes it when done, so no
	// Close races a send on the same conn.
	queued := dial(t, ts.addr)
	queuedErr := make(chan error, 1)
	go func() {
		defer queued.Close()
		_, err := queued.Exec("UPDATE t SET b = 3 WHERE a = 1")
		queuedErr <- err
	}()
	waitFor(t, 10*time.Second, "queue slot taken", func() bool {
		return ts.srv.QueueLen(sched.OLTP) == 1
	})

	// With the worker pinned and the queue slot taken, the next
	// statement is shed immediately with the structured busy error.
	shed := dial(t, ts.addr)
	defer shed.Close()
	if _, err := shed.Exec("UPDATE t SET b = 4 WHERE a = 1"); !client.IsBusy(err) {
		t.Fatalf("statement with worker pinned and queue full: want busy error, got %v", err)
	}

	// The queued statement overstays its lane bound and is abandoned.
	select {
	case err := <-queuedErr:
		if !client.IsQueueTimeout(err) {
			t.Fatalf("queued statement: want queue-timeout error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued statement never resolved")
	}

	// Unpin the worker; once it pops the abandoned task off the queue,
	// statements flow again.
	release()
	waitFor(t, 10*time.Second, "abandoned task popped", func() bool {
		return ts.srv.QueueLen(sched.OLTP) == 0
	})
	mustExec(t, c, "UPDATE t SET b = 5 WHERE a = 1")
}

func TestServerConnLimit(t *testing.T) {
	ts := startServer(t, db.Options{}, server.Config{MaxConns: 1})
	c := dial(t, ts.addr)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := client.Dial(ctx, ts.addr)
	if !client.IsBusy(err) {
		t.Fatalf("over-limit dial: want busy error, got %v", err)
	}

	// Freeing the slot re-admits.
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitFor(t, 5*time.Second, "slot free", func() bool { return ts.srv.NumSessions() == 0 })
	c2 := dial(t, ts.addr)
	c2.Close()
}

func TestServerGracefulDrain(t *testing.T) {
	ts := startServer(t, db.Options{}, server.Config{})
	c := dial(t, ts.addr)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE t (a INT, PRIMARY KEY (a))")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-ts.serveErr:
		if !errors.Is(err, server.ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if n := ts.srv.NumSessions(); n != 0 {
		t.Fatalf("%d sessions survive shutdown", n)
	}
	// The idle session was told: its queued response is the shutdown
	// error (or the conn is already closed — both are clean ends).
	if _, err := c.Exec("INSERT INTO t (a) VALUES (1)"); err == nil {
		t.Fatal("statement succeeded after shutdown")
	}
	// New connections are refused.
	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer dcancel()
	if _, err := client.Dial(dctx, ts.addr); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestServerManyConnections drives ≥1k concurrent sessions through
// prepared-statement churn, half of them vanishing abruptly, and then
// verifies every session (and its goroutines) is reclaimed.
func TestServerManyConnections(t *testing.T) {
	const conns = 1000
	baseline := runtime.NumGoroutine()

	ts := startServer(t, db.Options{}, server.Config{MaxConns: conns + 16})
	admin := dial(t, ts.addr)
	mustExec(t, admin, "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
	mustExec(t, admin, "INSERT INTO kv (k, v) VALUES (0, 0)")
	admin.Close()

	clients := make([]*client.Conn, conns)
	for i := range clients {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		c, err := client.Dial(ctx, ts.addr)
		cancel()
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		clients[i] = c
	}
	waitFor(t, 10*time.Second, "all sessions registered", func() bool {
		return ts.srv.NumSessions() == conns
	})

	// Churn: every session prepares, executes, and closes statements.
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Conn) {
			defer wg.Done()
			st, err := c.Prepare("SELECT v FROM kv WHERE k = ?")
			if err != nil {
				errCh <- fmt.Errorf("conn %d prepare: %w", i, err)
				return
			}
			for j := 0; j < 3; j++ {
				if _, err := st.Exec(0); err != nil {
					errCh <- fmt.Errorf("conn %d exec: %w", i, err)
					return
				}
			}
			if i%2 == 0 {
				// Orderly goodbye.
				if err := st.Close(); err != nil {
					errCh <- fmt.Errorf("conn %d close stmt: %w", i, err)
					return
				}
				if err := c.Close(); err != nil {
					errCh <- fmt.Errorf("conn %d close: %w", i, err)
				}
			} else {
				// Abrupt disconnect with the statement still open.
				c.Abort()
			}
		}(i, c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	waitFor(t, 30*time.Second, "all sessions reclaimed", func() bool {
		return ts.srv.NumSessions() == 0
	})

	// Drain the server, then confirm the goroutine population returned
	// to (near) the pre-test baseline: no leaked readers or handlers.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+8 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d live, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
}
