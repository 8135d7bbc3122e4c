// Command oadb is an interactive SQL shell over the oadms engine,
// built on the public db API: SELECTs stream through a db.Rows cursor
// (large results print as they arrive instead of materializing), and
// repeated statements hit the plan cache.
//
// Usage:
//
//	oadb [-dir path] [-sync group|sync|async|each] [-demo]
//	oadb -connect host:port
//
// With -connect the shell runs as a network client of an oadbd server
// instead of embedding the engine: statements travel the wire protocol,
// and the result footer reports the server-side lane, queue wait, and
// execution time (see docs/server.md).
//
// With -dir the database is durable: commits go through a segmented
// group-commit WAL in that directory, and restarting oadb on the same
// directory recovers the previous state (last checkpoint plus WAL
// tail). -sync picks the commit durability mode; \checkpoint snapshots
// the tables and truncates the log.
//
// With -demo it pre-loads the CH-benCHmark dataset so you can query
// immediately. Meta commands: \tables, \stats <table>, \merge <table>,
// \checkpoint, \cache, \quit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/db"
	"repro/internal/bench"
	"repro/internal/wal"
)

func main() {
	dir := flag.String("dir", "", "durable data directory (segmented WAL + checkpoints; reopening recovers)")
	syncMode := flag.String("sync", "group", "commit durability with -dir: group, sync, async, or each")
	demo := flag.Bool("demo", false, "pre-load the CH-benCHmark demo dataset")
	connect := flag.String("connect", "", "connect to an oadbd server at host:port instead of embedding the engine")
	flag.Parse()

	if *connect != "" {
		os.Exit(runRemote(*connect))
	}

	opts := db.Options{Dir: *dir}
	if *dir != "" {
		sm, err := wal.ParseSyncMode(*syncMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oadb:", err)
			os.Exit(1)
		}
		opts.Sync = sm
	}
	d, err := db.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oadb:", err)
		os.Exit(1)
	}
	defer func() {
		if err := d.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "oadb: close:", err)
		}
	}()

	if *demo {
		fmt.Print("loading CH-benCHmark demo data... ")
		start := time.Now()
		if err := bench.CreateTables(d.Engine()); err != nil {
			fmt.Fprintln(os.Stderr, "oadb:", err)
			os.Exit(1)
		}
		if err := bench.Load(d.Engine(), bench.DefaultScale(), 1); err != nil {
			fmt.Fprintln(os.Stderr, "oadb:", err)
			os.Exit(1)
		}
		fmt.Printf("done (%v)\n", time.Since(start).Round(time.Millisecond))
	}

	ctx := context.Background()
	fmt.Println("oadb — operational analytics DBMS. \\quit to exit, \\tables to list tables.")
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var tx *db.Tx // open explicit transaction, if any
	for {
		if tx != nil {
			fmt.Print("oadb*> ")
		} else {
			fmt.Print("oadb> ")
		}
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if runMeta(d, line) {
				return
			}
			continue
		}
		// Explicit transactions are a shell concern: BEGIN opens a
		// db.Tx and later statements run inside it.
		switch strings.ToUpper(strings.TrimSuffix(line, ";")) {
		case "BEGIN":
			if tx != nil {
				fmt.Println("error: transaction already open")
				continue
			}
			var err error
			if tx, err = d.Begin(ctx); err != nil {
				fmt.Println("error:", err)
			}
			continue
		case "COMMIT":
			if tx == nil {
				fmt.Println("error: no open transaction")
				continue
			}
			if err := tx.Commit(); err != nil {
				fmt.Println("error:", err)
			}
			tx = nil
			continue
		case "ROLLBACK":
			if tx == nil {
				fmt.Println("error: no open transaction")
				continue
			}
			if err := tx.Rollback(); err != nil {
				fmt.Println("error:", err)
			}
			tx = nil
			continue
		}
		start := time.Now()
		if isQuery(line) {
			var rows *db.Rows
			var err error
			if tx != nil {
				rows, err = tx.Query(ctx, line)
			} else {
				rows, err = d.Query(ctx, line)
			}
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printRows(rows, time.Since(start))
			continue
		}
		var res db.Result
		var err error
		if tx != nil {
			res, err = tx.Exec(ctx, line)
		} else {
			res, err = d.Exec(ctx, line)
		}
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("ok (%d rows affected, %v)\n", res.RowsAffected, time.Since(start).Round(time.Microsecond))
	}
}

func isQuery(line string) bool {
	up := strings.ToUpper(strings.TrimSpace(line))
	return strings.HasPrefix(up, "SELECT") || strings.HasPrefix(up, "EXPLAIN")
}

// runMeta handles \-commands; returns true to quit.
func runMeta(d *db.DB, line string) bool {
	engine := d.Engine()
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return true
	case "\\tables":
		for _, name := range engine.Tables() {
			fmt.Println(" ", name)
		}
	case "\\stats":
		if len(fields) < 2 {
			fmt.Println("usage: \\stats <table>")
			return false
		}
		tbl, err := engine.Table(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("  delta rows:    %d\n", tbl.DeltaRows())
		fmt.Printf("  column rows:   %d (%d segments, %d bytes encoded)\n",
			tbl.ColdRows(), tbl.Cold().NumSegments(), tbl.Cold().SizeBytes())
		fmt.Printf("  merges run:    %d\n", tbl.Merges())
		ss := tbl.ScanStats()
		fmt.Printf("  scans:         segments pruned %d/%d, zones pruned %d/%d\n",
			ss.SegmentsPruned, ss.SegmentsTotal, ss.ZonesPruned, ss.ZonesTotal)
		fmt.Printf("                 rows scanned %d, matched %d, values decoded %d\n",
			ss.RowsScanned, ss.RowsMatched, ss.RowsDecoded)
	case "\\merge":
		if len(fields) < 2 {
			fmt.Println("usage: \\merge <table>")
			return false
		}
		res, err := engine.Merge(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("  merged %d rows at ts %d (waited %v)\n", res.Merged, res.MergeTS, res.Waited)
	case "\\checkpoint":
		start := time.Now()
		lsn, err := d.Checkpoint(context.Background())
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("  checkpoint complete: covers lsn %d (%v)\n", lsn, time.Since(start).Round(time.Millisecond))
	case "\\cache":
		st := d.Stats()
		fmt.Printf("  plan cache: %d hits, %d misses, %d plans compiled\n",
			st.PlanCacheHits, st.PlanCacheMisses, st.PlansCompiled)
	default:
		fmt.Println("unknown meta command; available: \\tables \\stats \\merge \\checkpoint \\cache \\quit")
	}
	return false
}

// printRows streams the cursor to stdout, printing at most maxPrint
// rows but draining (and counting) the rest.
func printRows(rows *db.Rows, bindTime time.Duration) {
	defer rows.Close()
	header := strings.Join(rows.Columns(), " | ")
	fmt.Println(header)
	fmt.Println(strings.Repeat("-", len(header)))
	const maxPrint = 50
	n := 0
	start := time.Now()
	for rows.Next() {
		if n < maxPrint {
			row := make([]any, len(rows.Columns()))
			dests := make([]any, len(row))
			for i := range row {
				dests[i] = &row[i]
			}
			if err := rows.Scan(dests...); err != nil {
				fmt.Println("error:", err)
				return
			}
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = fmt.Sprint(v)
			}
			fmt.Println(strings.Join(cells, " | "))
		}
		n++
	}
	if err := rows.Err(); err != nil {
		fmt.Println("error:", err)
		return
	}
	if n > maxPrint {
		fmt.Printf("... (%d more rows)\n", n-maxPrint)
	}
	fmt.Printf("(%d rows, %v)\n", n, (bindTime + time.Since(start)).Round(time.Microsecond))
}
