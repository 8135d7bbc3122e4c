package main

import (
	"fmt"
	"time"

	"repro/internal/storage/colstore"
)

// metricDef names a metric. Bound is set for end-to-end metrics only:
// the share of the parent's median by which it may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics a user of the system sees. The driver
// wants the same metrics from every workload, and oltp has no analytic
// query while olap has no transaction, so the names are roles and each
// workload says which of its request classes fills each role:
//
//	role     oltp        olap            mixed       ingest
//	work     OLTP ops    queries         OLTP ops    rows
//	short    read        one query       read        50-row insert
//	long     COMMIT      17-query pass   pass        dashboard query
//
// The bounds are what this sandbox repeats within, measured over ten
// seeds several times (README.md has the spreads): a bound is at least
// twice the widest interquartile spread any ten runs showed, because
// the driver refuses a benchmark whose spread exceeds its bound.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.20},
	{"short_p50_ms", "ms", "lower", 0.25},
	{"short_p99_ms", "ms", "lower", 0.25},
	{"long_p50_ms", "ms", "lower", 0.20},
	{"long_p90_ms", "ms", "lower", 0.25},
	{"long_per_s", "1/s", "higher", 0.20},
	{"mem_bytes_per_row", "B", "lower", 0.03},
}

// roles binds a workload's request classes to the end-to-end names.
type roles struct {
	short []class
	long  class
	// longShare is the leading share of the window the long class is
	// measured over.
	longShare float64
	// workOf is the client whose operations are the work (-1: both);
	// workScale is units of work per operation.
	workOf    int
	workScale float64
}

var allQueries = func() []class {
	q := make([]class, 17)
	for i := range q {
		q[i] = clQuery + class(i)
	}
	return q
}()

// The dashboard of ingest is measured over the first quarter of the
// window. Its latency grows with the rows ingested since start-up and
// does not level off in any window the time budget allows, at a rate
// that differs from run to run by more than any bound; early in the
// window it repeats. The growth itself is the per-layer metric
// client.dash_growth.
var workloadRoles = map[string]roles{
	"oltp":   {short: []class{clRead}, long: clCommit, longShare: 1, workOf: -1, workScale: 1},
	"olap":   {short: allQueries, long: clPass, longShare: 1, workOf: -1, workScale: 1},
	"mixed":  {short: []class{clRead}, long: clPass, longShare: 1, workOf: 0, workScale: 1},
	"ingest": {short: []class{clInsert}, long: clDash, longShare: 0.25, workOf: 0, workScale: ingestBatch},
}

// metric is one reported value. Percentile is set when the value is
// a percentile of Samples samples.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// thin reports a percentile with fewer than minBeyond samples beyond
// it: too few for the figure to repeat.
func (m metric) thin() bool {
	return m.Percentile > 0 && beyond(m.Samples, m.Percentile) < minBeyond
}

func (m *measured) pooled(classes ...class) []sample {
	var out []sample
	for _, c := range classes {
		out = append(out, merged(m.recs, c)...)
	}
	return out
}

func (m *measured) opsDone(client int) int {
	n := 0
	for i, r := range m.recs {
		if client < 0 || client == i {
			n += r.done[0] + r.done[1]
		}
	}
	return n
}

// quarters returns the latencies of the classes' samples that ended in the first
// and in the last quarter of the window, each sorted.
func (m *measured) quarters(classes ...class) (first, last []float64) {
	var a, b []sample
	for _, s := range m.pooled(classes...) {
		switch {
		case s.end < m.cfg.window/4:
			a = append(a, s)
		case s.end >= m.cfg.window*3/4:
			b = append(b, s)
		}
	}
	return sortedMS(a, latOf), sortedMS(b, latOf)
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (m *measured) endToEnd() map[string]metric {
	r := workloadRoles[m.cfg.workload]
	secs := m.cfg.window.Seconds()
	var setups []float64
	for _, d := range m.setups {
		setups = append(setups, d.Seconds())
	}
	short := sortedMS(m.pooled(r.short...), latOf)
	longFor := time.Duration(float64(m.cfg.window) * r.longShare)
	var longSamples []sample
	for _, s := range m.pooled(r.long) {
		if s.end < longFor {
			longSamples = append(longSamples, s)
		}
	}
	long := sortedMS(longSamples, latOf)
	work := m.opsDone(r.workOf)
	return map[string]metric{
		"setup_s":           {Value: median(setups), Unit: "s", Samples: len(setups)},
		"work_per_s":        {Value: float64(work) * r.workScale / secs, Unit: "1/s", Samples: work},
		"short_p50_ms":      {percentile(short, 50), "ms", len(short), 50},
		"short_p99_ms":      {percentile(short, 99), "ms", len(short), 99},
		"long_p50_ms":       {percentile(long, 50), "ms", len(long), 50},
		"long_p90_ms":       {percentile(long, 90), "ms", len(long), 90},
		"long_per_s":        {Value: float64(len(long)) / longFor.Seconds(), Unit: "1/s", Samples: len(long)},
		"mem_bytes_per_row": {Value: m.memPerRow, Unit: "B", Samples: 1},
	}
}

// layerDef is a per-layer metric and how a traced run computes it.
// Metrics of a class the workload does not run are 0 with no samples.
type layerDef struct {
	metricDef
	percentile float64 // of the samples, when the metric is one
	compute    func(p *layerInputs) (float64, int)
}

// layerInputs is what per-layer metrics are computed from.
type layerInputs struct {
	m      *measured
	ladder map[string]float64
	ops    int // logical operations completed in the window
	reads  int
	// commits is acknowledged write transactions: COMMIT statements and
	// autocommit inserts.
	commits int
}

func (p *layerInputs) srvDelta(name string) float64 {
	return p.m.after.srv[name] - p.m.before.srv[name]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rate is completions of the classes per second.
func rate(scale float64, classes ...class) func(*layerInputs) (float64, int) {
	return func(in *layerInputs) (float64, int) {
		n := len(in.m.pooled(classes...))
		return float64(n) * scale / in.m.cfg.window.Seconds(), n
	}
}

func fromLadder(name string) func(*layerInputs) (float64, int) {
	return func(in *layerInputs) (float64, int) { return in.ladder[name], ladderReps }
}

func value(f func(*layerInputs) float64) func(*layerInputs) (float64, int) {
	return func(in *layerInputs) (float64, int) { return f(in), 1 }
}

var (
	oltpStmts = []class{clRead, clAdhocRead, clOrderStatus, clWriteStmt, clInsert}
	oltpOps   = []class{clRead, clAdhocRead, clPayment, clNewOrder, clOrderStatus}
)

// scanDelta is what the table's scans did inside the window.
func (p *layerInputs) scanDelta(table string) colstore.ScanStats {
	a, b := p.m.after.scans[table], p.m.before.scans[table]
	return colstore.ScanStats{
		SegmentsTotal: a.SegmentsTotal - b.SegmentsTotal, SegmentsPruned: a.SegmentsPruned - b.SegmentsPruned,
		ZonesTotal: a.ZonesTotal - b.ZonesTotal, ZonesPruned: a.ZonesPruned - b.ZonesPruned,
		RowsScanned: a.RowsScanned - b.RowsScanned, RowsMatched: a.RowsMatched - b.RowsMatched,
		RowsDecoded: a.RowsDecoded - b.RowsDecoded,
	}
}

// scanTable is the table whose pruning the workload's analytic side
// depends on.
func (p *layerInputs) scanTable() string {
	if p.m.cfg.workload == "ingest" {
		return "metrics"
	}
	return "order_line"
}

var layerDefs = buildLayerDefs()

func buildLayerDefs() []layerDef {
	var defs []layerDef
	add := func(name, unit, better string, f func(*layerInputs) (float64, int)) {
		defs = append(defs, layerDef{metricDef: metricDef{Name: name, Unit: unit, Better: better}, compute: f})
	}
	// addPct adds the p-th percentile of f over the classes' samples,
	// in unit: ms or us.
	addPct := func(name, unit string, p float64, f func(sample) time.Duration, classes ...class) {
		scale := 1.0
		if unit == "us" {
			scale = 1000
		}
		defs = append(defs, layerDef{
			metricDef:  metricDef{Name: name, Unit: unit, Better: "lower"},
			percentile: p,
			compute: func(in *layerInputs) (float64, int) {
				s := sortedMS(in.m.pooled(classes...), f)
				return percentile(s, p) * scale, len(s)
			},
		})
	}
	// client: the issue's class names, from client clocks.
	add("client.oltp_tps", "1/s", "higher", rate(1, oltpOps...))
	addPct("client.read_p50_ms", "ms", 50, latOf, clRead)
	addPct("client.read_p99_ms", "ms", 99, latOf, clRead)
	addPct("client.read_p999_ms", "ms", 99.9, latOf, clRead)
	addPct("client.commit_p50_ms", "ms", 50, latOf, clCommit)
	addPct("client.commit_p99_ms", "ms", 99, latOf, clCommit)
	addPct("client.adhoc_read_p50_us", "us", 50, latOf, clAdhocRead)
	addPct("client.payment_p50_ms", "ms", 50, latOf, clPayment)
	addPct("client.new_order_p50_ms", "ms", 50, latOf, clNewOrder)
	addPct("client.order_status_p50_us", "us", 50, latOf, clOrderStatus)
	addPct("client.write_stmt_p50_us", "us", 50, latOf, clWriteStmt)
	addPct("client.begin_p50_us", "us", 50, latOf, clBegin)
	add("client.olap_qps", "1/s", "higher", rate(1, allQueries...))
	addPct("client.pass_p50_ms", "ms", 50, latOf, clPass)
	addPct("client.pass_p90_ms", "ms", 90, latOf, clPass)
	for _, q := range allQueries {
		addPct("client."+classNames[q]+"_p50_ms", "ms", 50, latOf, q)
	}
	add("client.ingest_rows_s", "1/s", "higher", rate(ingestBatch, clInsert))
	addPct("client.insert_p50_ms", "ms", 50, latOf, clInsert)
	addPct("client.insert_p99_ms", "ms", 99, latOf, clInsert)
	addPct("client.dash_p50_ms", "ms", 50, latOf, clDash)
	addPct("client.dash_p99_ms", "ms", 99, latOf, clDash)
	add("client.stats_rtt_us", "us", "lower", fromLadder("client.stats_rtt_us"))
	// How far the system is from a steady state: the last quarter of
	// the window against the first.
	add("client.work_decay", "ratio", "higher", func(p *layerInputs) (float64, int) {
		first, last := p.m.quarters(append(append([]class{clInsert}, oltpOps...), allQueries...)...)
		return ratio(float64(len(last)), float64(len(first))), len(first) + len(last)
	})
	add("client.dash_growth", "ratio", "lower", func(p *layerInputs) (float64, int) {
		first, last := p.m.quarters(clDash)
		return ratio(percentile(last, 50), percentile(first, 50)), len(first) + len(last)
	})

	// wire: what the client saw beyond the server's own wait and exec.
	addPct("wire.read_overhead_p50_us", "us", 50, overheadOf, clRead)
	addPct("wire.commit_overhead_p50_us", "us", 50, overheadOf, clCommit)
	addPct("wire.olap_overhead_p50_us", "us", 50, overheadOf, allQueries...)
	addPct("wire.ingest_overhead_p50_us", "us", 50, overheadOf, clInsert)
	add("wire.bytes_in_per_op", "B", "lower", value(func(p *layerInputs) float64 {
		return ratio(p.srvDelta("bytes_in"), float64(p.ops))
	}))
	add("wire.bytes_out_per_op", "B", "lower", value(func(p *layerInputs) float64 {
		return ratio(p.srvDelta("bytes_out"), float64(p.ops))
	}))
	for _, n := range []string{"wire.encode_execute_ns", "wire.decode_execute_ns"} {
		add(n, "ns", "lower", fromLadder(n))
	}
	for _, n := range []string{"wire.encode_rowbatch_us", "wire.decode_rowbatch_us"} {
		add(n, "us", "lower", fromLadder(n))
	}

	// sched: queue wait as the server reports it in each Done frame.
	addPct("sched.oltp_wait_p50_us", "us", 50, waitOf, oltpStmts...)
	addPct("sched.oltp_wait_p99_us", "us", 99, waitOf, oltpStmts...)
	addPct("sched.olap_wait_p50_us", "us", 50, waitOf, append(allQueries, clDash)...)
	addPct("sched.olap_wait_p99_us", "us", 99, waitOf, append(allQueries, clDash)...)
	add("sched.rejected", "count", "lower", value(func(p *layerInputs) float64 {
		return p.srvDelta("lane_oltp_rejected_full") + p.srvDelta("lane_oltp_rejected_timeout") +
			p.srvDelta("lane_olap_rejected_full") + p.srvDelta("lane_olap_rejected_timeout")
	}))
	add("sched.handoff_us", "us", "lower", fromLadder("sched.handoff_us"))

	// server: execution time from the Done frame. COMMIT is not here:
	// the server sends zeros for transaction control.
	addPct("server.read_exec_p50_us", "us", 50, execOf, clRead)
	addPct("server.write_exec_p50_us", "us", 50, execOf, clWriteStmt)
	addPct("server.olap_exec_p50_ms", "ms", 50, execOf, allQueries...)
	addPct("server.ingest_exec_p50_us", "us", 50, execOf, clInsert)
	addPct("server.dash_exec_p50_us", "us", 50, execOf, clDash)
	add("server.exec_share", "ratio", "lower", func(p *layerInputs) (float64, int) {
		var exec, lat time.Duration
		all := p.m.pooled(append(append([]class{clCommit, clBegin, clDash}, oltpStmts...), allQueries...)...)
		for _, s := range all {
			exec, lat = exec+s.exec, lat+s.lat
		}
		return ratio(float64(exec), float64(lat)), len(all)
	})

	// db: the plan cache.
	add("db.plan_cache_hit_ratio", "ratio", "higher", value(func(p *layerInputs) float64 {
		a, b := p.m.after.db, p.m.before.db
		hits, misses := float64(a.PlanCacheHits-b.PlanCacheHits), float64(a.PlanCacheMisses-b.PlanCacheMisses)
		return ratio(hits, hits+misses)
	}))
	add("db.plans_compiled_per_kop", "count", "lower", value(func(p *layerInputs) float64 {
		return ratio(1000*float64(p.m.after.db.PlansCompiled-p.m.before.db.PlansCompiled), float64(p.ops))
	}))
	for _, n := range []string{
		"db.prepare_hit_us", "db.point_select_us", "db.insert_commit_us",
		"sql.parse_point_us", "sql.parse_q05_us", "sql.prepare_point_us", "sql.prepare_q05_us",
	} {
		add(n, "us", "lower", fromLadder(n))
	}
	add("exec.agg_mrows_s", "Mrows/s", "higher", fromLadder("exec.agg_mrows_s"))
	add("exec.join_mrows_s", "Mrows/s", "higher", fromLadder("exec.join_mrows_s"))
	add("exec.topk_ms", "ms", "lower", fromLadder("exec.topk_ms"))

	// core: point paths, scans, background work.
	for _, n := range []string{
		"core.get_us", "core.get_delta_us", "core.insert_us", "core.commit_async_us", "core.commit_group_us",
	} {
		add(n, "us", "lower", fromLadder(n))
	}
	for _, n := range []string{
		"core.scan_mrows_s", "core.scan_filtered_mrows_s", "core.scan_delta_mrows_s", "core.merge_mrows_s",
	} {
		add(n, "Mrows/s", "higher", fromLadder(n))
	}
	add("core.checkpoint_ms", "ms", "lower", fromLadder("core.checkpoint_ms"))
	add("core.recover_ms_per_mb", "ms/MB", "lower", value(func(p *layerInputs) float64 {
		return ratio(ms(p.m.reopen), float64(p.m.walBytesEnd)/1e6)
	}))
	add("core.merges", "count", "lower", value(func(p *layerInputs) float64 {
		return float64(p.m.after.merges - p.m.before.merges)
	}))
	add("core.delta_rows_end", "count", "lower", value(func(p *layerInputs) float64 {
		return float64(p.m.after.deltaRows)
	}))
	add("core.mem_bytes_per_row_end", "B", "lower", value(func(p *layerInputs) float64 {
		return p.m.memPerRowEnd
	}))

	// colstore: rows examined per point read, and pruning under scans.
	add("colstore.rows_scanned_per_read", "count", "lower", func(p *layerInputs) (float64, int) {
		return ratio(float64(p.scanDelta("customer").RowsScanned), float64(p.reads)), p.reads
	})
	add("colstore.rows_decoded_per_read", "count", "lower", func(p *layerInputs) (float64, int) {
		return ratio(float64(p.scanDelta("customer").RowsDecoded), float64(p.reads)), p.reads
	})
	add("colstore.zones_pruned_ratio", "ratio", "higher", value(func(p *layerInputs) float64 {
		d := p.scanDelta(p.scanTable())
		return ratio(float64(d.ZonesPruned), float64(d.ZonesTotal))
	}))
	add("colstore.segments_pruned_ratio", "ratio", "higher", value(func(p *layerInputs) float64 {
		d := p.scanDelta(p.scanTable())
		return ratio(float64(d.SegmentsPruned), float64(d.SegmentsTotal))
	}))
	add("colstore.rows_decoded_per_matched", "count", "lower", value(func(p *layerInputs) float64 {
		d := p.scanDelta(p.scanTable())
		return ratio(float64(d.RowsDecoded), float64(d.RowsMatched))
	}))

	// txn: operations the server refused. Clients write disjoint rows,
	// so this is 0 unless isolation or admission changes.
	add("txn.conflict_abort_share", "ratio", "lower", func(p *layerInputs) (float64, int) {
		attempted, failed := 0, 0
		for _, r := range p.m.recs {
			attempted, failed = attempted+r.attempted, failed+r.failed
		}
		return ratio(float64(failed), float64(attempted)), attempted
	})

	// wal: log activity per acknowledged write transaction.
	walDelta := func(f func(a, b counters) float64) func(*layerInputs) (float64, int) {
		return func(p *layerInputs) (float64, int) {
			return ratio(f(p.m.after, p.m.before), float64(p.commits)), p.commits
		}
	}
	add("wal.fsyncs_per_commit", "count", "lower", walDelta(func(a, b counters) float64 {
		return float64(a.wal.Syncs - b.wal.Syncs)
	}))
	add("wal.appends_per_commit", "count", "lower", walDelta(func(a, b counters) float64 {
		return float64(a.wal.Appends - b.wal.Appends)
	}))
	add("wal.bytes_per_commit", "B", "lower", walDelta(func(a, b counters) float64 {
		return float64(a.walBytes - b.walBytes)
	}))
	add("wal.commits_per_flush", "count", "higher", func(p *layerInputs) (float64, int) {
		return ratio(float64(p.commits), float64(p.m.after.wal.Flushes-p.m.before.wal.Flushes)), p.commits
	})
	add("wal.rotations", "count", "lower", value(func(p *layerInputs) float64 {
		return float64(p.m.after.wal.Rotations - p.m.before.wal.Rotations)
	}))
	add("wal.append_us", "us", "lower", fromLadder("wal.append_us"))
	add("wal.fsync_us", "us", "lower", fromLadder("wal.fsync_us"))

	// go: the whole process, generator and clients included.
	add("go.alloc_kb_per_op", "KB", "lower", value(func(p *layerInputs) float64 {
		return ratio(float64(p.m.after.mem.TotalAlloc-p.m.before.mem.TotalAlloc)/1024, float64(p.ops))
	}))
	add("go.gc_pause_ms", "ms", "lower", value(func(p *layerInputs) float64 {
		return float64(p.m.after.mem.PauseTotalNs-p.m.before.mem.PauseTotalNs) / 1e6
	}))
	add("go.gc_cycles", "count", "lower", value(func(p *layerInputs) float64 {
		return float64(p.m.after.mem.NumGC - p.m.before.mem.NumGC)
	}))
	add("go.heap_peak_mb", "MB", "lower", value(func(p *layerInputs) float64 {
		return float64(p.m.after.mem.HeapSys) / (1 << 20)
	}))

	// budget: how much of a class latency the ladder does not account
	// for. Each is the class median minus the three terms named.
	add("budget.read_unexplained_us", "us", "lower", func(p *layerInputs) (float64, int) {
		s := sortedMS(p.m.pooled(clRead), latOf)
		if len(s) == 0 {
			return 0, 0
		}
		return percentile(s, 50)*1000 -
			(p.ladder["client.stats_rtt_us"] + p.ladder["sched.handoff_us"] + p.ladder["db.point_select_us"]), len(s)
	})
	add("budget.commit_unexplained_us", "us", "lower", func(p *layerInputs) (float64, int) {
		s := sortedMS(p.m.pooled(clCommit), latOf)
		if len(s) == 0 {
			return 0, 0
		}
		// COMMIT does not pass through a lane, so no handoff term.
		return percentile(s, 50)*1000 - (p.ladder["client.stats_rtt_us"] + p.ladder["core.commit_group_us"]), len(s)
	})
	add("trace.overhead_share", "ratio", "lower", func(p *layerInputs) (float64, int) {
		var done [2]int
		for _, r := range p.m.recs {
			done[0], done[1] = done[0]+r.done[0], done[1]+r.done[1]
		}
		var in [2]time.Duration
		for t := time.Duration(0); t < p.m.cfg.window; t += traceSlice {
			in[(t/traceSlice)%2] += min(traceSlice, p.m.cfg.window-t)
		}
		traced, untraced := ratio(float64(done[0]), in[0].Seconds()), ratio(float64(done[1]), in[1].Seconds())
		if untraced == 0 {
			return 0, 0
		}
		return 1 - traced/untraced, done[0] + done[1]
	})
	return defs
}

// perLayer computes the per-layer metrics of a traced run.
func (m *measured) perLayer(ladder map[string]float64) map[string]metric {
	in := &layerInputs{
		m: m, ladder: ladder,
		ops:     m.opsDone(-1),
		reads:   len(m.pooled(clRead, clAdhocRead)),
		commits: len(m.pooled(clCommit, clInsert)),
	}
	out := map[string]metric{}
	for _, d := range layerDefs {
		v, n := d.compute(in)
		out[d.Name] = metric{v, d.Unit, n, d.percentile}
	}
	return out
}

// budgetLines spell the budget metrics out with their terms, for the
// classes the workload runs.
func budgetLines(ms map[string]metric) []string {
	v := func(n string) float64 { return ms[n].Value }
	var lines []string
	if v("client.read_p50_ms") > 0 {
		lines = append(lines,
			fmt.Sprintf("budget read:   p50 %.1f us = stats_rtt %.1f + sched.handoff %.1f + db.point_select %.1f + unexplained %.1f",
				v("client.read_p50_ms")*1000, v("client.stats_rtt_us"), v("sched.handoff_us"), v("db.point_select_us"), v("budget.read_unexplained_us")),
			fmt.Sprintf("point read:    colstore.rows_scanned_per_read %.0f, db.point_select_us %.1f, core.get_us %.2f",
				v("colstore.rows_scanned_per_read"), v("db.point_select_us"), v("core.get_us")))
	}
	if v("client.commit_p50_ms") > 0 {
		lines = append(lines,
			fmt.Sprintf("budget commit: p50 %.1f us = stats_rtt %.1f + core.commit_group %.1f + unexplained %.1f",
				v("client.commit_p50_ms")*1000, v("client.stats_rtt_us"), v("core.commit_group_us"), v("budget.commit_unexplained_us")))
	}
	return lines
}
