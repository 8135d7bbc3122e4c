package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/db"
	"repro/internal/server"
	"repro/internal/storage/colstore"
	"repro/internal/wal"
)

// numClients is fixed: the reference host has two processors.
const numClients = 2

var workloadNames = []string{"oltp", "olap", "mixed", "ingest"}

// runConfig says what one run does.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	warmup   time.Duration
	trace    bool
	smoke    bool
	setups   int    // set-ups timed; the last one is used
	tmpRoot  string // database directories are made here
	outDir   string // span files are written here
}

// mergeEvery is the merge daemon's interval.
const mergeEvery = 200 * time.Millisecond

// dbOptions are the options of every database the benchmark opens:
// durable, group commit with a real fsync; everything else at its
// default. The merge daemon (every mergeEvery, at 20,000 delta rows)
// is started once the dataset is loaded: running during the load it
// would cut the tables into segments at moments set by timing, and
// every run would measure a different layout.
func dbOptions(dir string) db.Options {
	return db.Options{Dir: dir, MergeThreshold: 20000}
}

// gateError is a failed correctness gate, as opposed to a failure of
// the harness.
type gateError struct{ err error }

func (g gateError) Error() string { return "correctness gate: " + g.err.Error() }
func (g gateError) Unwrap() error { return g.err }

// inputs are a run's generated data.
type inputs struct {
	ch       *chData       // nil for ingest; released once loaded
	cat      *catalog      // what OLTP clients know
	refs     [17]refResult // expected answers on the initial data
	wantRows [17]int
	tables   []string
	liveRows int
}

func makeInputs(cfg runConfig) *inputs {
	if cfg.workload == "ingest" {
		n := metricsRows
		if cfg.smoke {
			n = metricsRowsSmoke
		}
		return &inputs{tables: []string{"metrics"}, liveRows: n}
	}
	sc := scaleCH4
	if cfg.smoke {
		sc = scaleSmoke
	}
	in := &inputs{ch: genCH(sc, cfg.seed), tables: chTables}
	in.cat = newCatalog(in.ch)
	in.liveRows = in.ch.numRows()
	for q := range in.refs {
		in.refs[q] = in.ch.reference(q + 1)
		in.wantRows[q] = len(in.refs[q].limited())
	}
	return in
}

// instance is one set-up database with its server and clients.
type instance struct {
	dir     string
	db      *db.DB
	srv     *server.Server
	served  chan error
	conns   []*client.Conn
	runners []runner
	stream  *stream      // ingest
	dash    *client.Stmt // ingest
}

// setUp opens a fresh durable database, loads and merges the dataset,
// serves it on a loopback listener, dials the clients and prepares
// their statements. Its duration is setup_s.
func setUp(cfg runConfig, in *inputs) (_ *instance, err error) {
	inst := &instance{served: make(chan error, 1)}
	defer func() {
		if err != nil {
			inst.tearDown()
		}
	}()
	if inst.dir, err = os.MkdirTemp(cfg.tmpRoot, "db-"); err != nil {
		return nil, err
	}
	if inst.db, err = db.Open(dbOptions(inst.dir)); err != nil {
		return nil, err
	}
	if cfg.workload == "ingest" {
		inst.stream = &stream{gen: newMetricsGen(cfg.seed)}
		if err = loadMetrics(inst.db.Engine(), inst.stream.gen, in.liveRows, inst.stream.keep); err != nil {
			return nil, err
		}
		inst.stream.ackedTS.Store(inst.stream.gen.ts)
	} else if err = loadCH(inst.db.Engine(), in.ch); err != nil {
		return nil, err
	}
	inst.db.Engine().StartAutoMerge(mergeEvery)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst.srv = server.New(inst.db, server.Config{})
	go func() { inst.served <- inst.srv.Serve(context.Background(), ln) }()
	for i := 0; i < numClients; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		conn, err := client.Dial(ctx, ln.Addr().String())
		cancel()
		if err != nil {
			return nil, err
		}
		inst.conns = append(inst.conns, conn)
	}
	for i, conn := range inst.conns {
		var r runner
		switch {
		case cfg.workload == "oltp":
			r, err = newOLTPClient(conn, in.cat, cfg.seed, i, numClients)
		case cfg.workload == "mixed" && i == 0:
			r, err = newOLTPClient(conn, in.cat, cfg.seed, 0, 1)
		case cfg.workload == "olap":
			// The second analyst starts at query 9.
			r = &analystClient{conn: conn, startAt: 8 * i, wantRows: &in.wantRows}
		case cfg.workload == "mixed":
			r = &analystClient{conn: conn, startAt: 8}
		case i == 0:
			var st *client.Stmt
			if st, err = conn.Prepare(ingestSQL); err == nil {
				r = &writerClient{st: st, s: inst.stream}
			}
		default:
			if inst.dash, err = conn.Prepare(dashSQL); err == nil {
				r = &dashClient{st: inst.dash, s: inst.stream}
			}
		}
		if err != nil {
			return nil, err
		}
		inst.runners = append(inst.runners, r)
	}
	return inst, nil
}

// stop closes the clients, drains the server and closes the database,
// leaving the directory.
func (inst *instance) stop() error {
	for _, c := range inst.conns {
		c.Close()
	}
	inst.conns = nil
	var err error
	if inst.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = inst.srv.Shutdown(ctx)
		cancel()
		if serr := <-inst.served; err == nil && !errors.Is(serr, server.ErrServerClosed) {
			err = serr
		}
		inst.srv = nil
	}
	if inst.db != nil {
		if cerr := inst.db.Close(); err == nil {
			err = cerr
		}
		inst.db = nil
	}
	return err
}

// tearDown stops everything and removes the directory.
func (inst *instance) tearDown() {
	_ = inst.stop() // nothing more is read from this database
	if inst.dir != "" {
		os.RemoveAll(inst.dir)
	}
}

// counters is a snapshot of every public counter the per-layer metrics
// use.
type counters struct {
	srv       map[string]float64
	db        db.Stats
	wal       wal.LogStats
	walBytes  int64
	scans     map[string]colstore.ScanStats
	merges    int
	deltaRows int
	mem       runtime.MemStats
}

func (inst *instance) snapshot(tables []string) counters {
	c := counters{
		srv:      parseStats(inst.srv.StatsText()),
		db:       inst.db.Stats(),
		wal:      inst.db.Engine().Log().Stats(),
		walBytes: dirBytes(inst.dir),
		scans:    map[string]colstore.ScanStats{},
	}
	for _, name := range tables {
		t, err := inst.db.Engine().Table(name)
		if err != nil {
			continue // counted as zeros; the run's own statements report a missing table
		}
		c.scans[name] = t.ScanStats()
		c.merges += t.Merges()
		c.deltaRows += t.DeltaRows()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// parseStats reads the server's "name value" lines.
func parseStats(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil // a file that vanished under a checkpoint is not an error
	})
	return n
}

// heapPerRow settles the heap and divides it by the live rows. The
// heap is the whole process's: it includes the benchmark's own
// generator state and connections.
func heapPerRow(rows int) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / float64(rows)
}

// measured is everything one run observed, before it is turned into
// metrics.
type measured struct {
	cfg          runConfig
	setups       []time.Duration
	memPerRow    float64
	memPerRowEnd float64
	recs         []*recorder
	before       counters
	after        counters
	reopen       time.Duration
	walBytesEnd  int64
}

// execute performs one run: set-up, gates, warm-up, window, gates.
func execute(cfg runConfig) (*measured, error) {
	m := &measured{cfg: cfg}
	in := makeInputs(cfg)
	var inst *instance
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			inst.tearDown()
		}
		start := time.Now()
		var err error
		if inst, err = setUp(cfg, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, time.Since(start))
	}
	defer inst.tearDown()
	in.ch = nil
	m.memPerRow = heapPerRow(in.liveRows)

	if cfg.workload == "olap" || cfg.workload == "mixed" {
		if err := verifyRefs(inst.conns[0], in); err != nil {
			return nil, gateError{err}
		}
	}

	win := window{t0: time.Now().Add(cfg.warmup), trace: cfg.trace}
	win.t1 = win.t0.Add(cfg.window)
	errs := make([]error, len(inst.runners))
	var wg sync.WaitGroup
	for i, r := range inst.runners {
		rec := newRecorder(win, i)
		m.recs = append(m.recs, rec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.run(rec)
		}()
	}
	if cfg.trace {
		time.Sleep(time.Until(win.t0))
		m.before = inst.snapshot(in.tables)
		time.Sleep(time.Until(win.t1))
		m.after = inst.snapshot(in.tables)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, gateError{err}
	}

	var total acks
	for _, r := range inst.runners {
		total.add(r.acked())
	}
	switch cfg.workload {
	case "olap":
		if err := verifyRefs(inst.conns[1], in); err != nil {
			return nil, gateError{err}
		}
	case "ingest":
		if err := verifyDashboard(inst.dash, inst.stream); err != nil {
			return nil, gateError{err}
		}
	}
	if cfg.trace {
		if err := mergeAll(inst.db.Engine(), in.tables); err != nil {
			return nil, err
		}
		m.memPerRowEnd = heapPerRow(in.liveRows + int(total.payments+2*total.newOrders+total.lines+total.rows))
		if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), m.recs); err != nil {
			return nil, err
		}
	}
	return m, m.durabilityGate(inst, in, total)
}

func verifyRefs(conn *client.Conn, in *inputs) error {
	for q, ref := range in.refs {
		got, err := queryAll(conn, chQueries[q])
		if err == nil {
			err = ref.check(got)
		}
		if err != nil {
			return fmt.Errorf("q%02d: %w", q+1, err)
		}
	}
	return nil
}

// durabilityGate shuts the server down, closes the database, reopens
// the directory and checks that every acknowledged commit is there.
func (m *measured) durabilityGate(inst *instance, in *inputs, a acks) error {
	if err := inst.stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	m.walBytesEnd = dirBytes(inst.dir)
	start := time.Now()
	d, err := db.Open(db.Options{Dir: inst.dir})
	if err != nil {
		return gateError{fmt.Errorf("reopen: %w", err)}
	}
	m.reopen = time.Since(start)
	defer d.Close()
	type want struct {
		sql string
		val float64
	}
	var checks []want
	if in.cat == nil {
		checks = []want{{"SELECT COUNT(*) FROM metrics", float64(int64(in.liveRows) + a.rows)}}
	} else {
		sc := in.cat.scale
		orders := int64(sc.Warehouses * sc.Districts * sc.Orders)
		var lines, balance float64
		for _, n := range in.cat.olCnt {
			lines += float64(n)
		}
		// The catalog's balances already carry the acknowledged payments.
		for _, b := range in.cat.balance {
			balance += b
		}
		checks = []want{
			{"SELECT COUNT(*) FROM history", float64(a.payments)},
			{"SELECT COUNT(*) FROM orders", float64(orders + a.newOrders)},
			{"SELECT COUNT(*) FROM new_order", float64(orders/int64(sc.Orders)*int64(sc.Orders-sc.Orders*2/3) + a.newOrders)},
			{"SELECT COUNT(*) FROM order_line", lines + float64(a.lines)},
			{"SELECT SUM(d_ytd) FROM district", a.amount},
			{"SELECT SUM(c_balance) FROM customer", balance},
		}
	}
	for _, c := range checks {
		var got float64
		if err := d.QueryRow(context.Background(), c.sql).Scan(&got); err != nil {
			return gateError{fmt.Errorf("after reopen, %s: %w", c.sql, err)}
		}
		if got != c.val || math.IsNaN(got) {
			return gateError{fmt.Errorf("after reopen, %s = %v, want %v", c.sql, got, c.val)}
		}
	}
	return nil
}
