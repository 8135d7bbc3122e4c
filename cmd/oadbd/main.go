// Command oadbd is the oadms network server: it opens (or recovers) a
// database and serves the wire protocol, multiplexing client
// connections onto a bounded worker pool with OLTP/OLAP priority lanes
// and admission control (see docs/server.md).
//
// Usage:
//
//	oadbd [-listen :4050] [-dir path] [-sync group|sync|async|each]
//	      [-workers n] [-max-olap n]
//	      [-oltp-queue n] [-olap-queue n]
//	      [-oltp-queue-timeout d] [-olap-queue-timeout d]
//	      [-no-lanes] [-max-conns n] [-metrics addr]
//	      [-drain-timeout d] [-demo]
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// statements finish, idle sessions get a shutdown error, and after
// -drain-timeout stragglers are cut off. A second signal skips straight
// to the hard stop.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/db"
	"repro/internal/bench"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	listen := flag.String("listen", ":4050", "wire-protocol listen address")
	dir := flag.String("dir", "", "durable data directory (segmented WAL + checkpoints; reopening recovers)")
	syncMode := flag.String("sync", "group", "commit durability with -dir: group, sync, async, or each")
	workers := flag.Int("workers", 0, "statement worker pool size (0 = max(4, GOMAXPROCS))")
	maxOLAP := flag.Int("max-olap", 0, "max concurrently executing analytic statements (0 = half the workers)")
	oltpQueue := flag.Int("oltp-queue", 0, "OLTP lane queue depth (0 = default 1024)")
	olapQueue := flag.Int("olap-queue", 0, "OLAP lane queue depth (0 = default 1024)")
	oltpQueueTimeout := flag.Duration("oltp-queue-timeout", 0, "max OLTP queue wait before abandoning (0 = unbounded)")
	olapQueueTimeout := flag.Duration("olap-queue-timeout", 0, "max OLAP queue wait before abandoning (0 = unbounded)")
	noLanes := flag.Bool("no-lanes", false, "disable workload lanes and admission control (benchmark ablation)")
	maxConns := flag.Int("max-conns", 0, "max concurrent client sessions (0 = default 16384)")
	metricsAddr := flag.String("metrics", "", "serve the plain-text metrics endpoint on this HTTP address")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown grace before in-flight statements are cancelled")
	demo := flag.Bool("demo", false, "pre-load the CH-benCHmark demo dataset")
	flag.Parse()

	opts := db.Options{Dir: *dir}
	if *dir != "" {
		sm, err := wal.ParseSyncMode(*syncMode)
		if err != nil {
			fatal(err)
		}
		opts.Sync = sm
	}
	d, err := db.Open(opts)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "oadbd: close:", err)
		}
	}()

	if *demo {
		fmt.Fprint(os.Stderr, "oadbd: loading CH-benCHmark demo data... ")
		start := time.Now()
		if err := bench.CreateTables(d.Engine()); err != nil {
			fatal(err)
		}
		if err := bench.Load(d.Engine(), bench.DefaultScale(), 1); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "done (%v)\n", time.Since(start).Round(time.Millisecond))
	}

	srv := server.New(d, server.Config{
		Workers:          *workers,
		MaxOLAP:          *maxOLAP,
		OLTPQueueDepth:   *oltpQueue,
		OLAPQueueDepth:   *olapQueue,
		OLTPQueueTimeout: *oltpQueueTimeout,
		OLAPQueueTimeout: *olapQueueTimeout,
		DisableLanes:     *noLanes,
		MaxConns:         *maxConns,
	})

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "oadbd: metrics:", err)
			}
		}()
	}

	// Drain on the first signal; a second signal hard-stops.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(context.Background(), *listen) }()

	fmt.Fprintf(os.Stderr, "oadbd: serving on %s (lanes %s)\n", *listen, laneDesc(*noLanes))
	select {
	case err := <-serveErr:
		if err != nil && err != server.ErrServerClosed {
			fatal(err)
		}
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "oadbd: %s — draining (grace %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			<-sigCh
			fmt.Fprintln(os.Stderr, "oadbd: second signal — hard stop")
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "oadbd: shutdown:", err)
		}
		cancel()
		<-serveErr
	}
	fmt.Fprintln(os.Stderr, "oadbd: stopped")
}

func laneDesc(disabled bool) string {
	if disabled {
		return "disabled"
	}
	return "oltp/olap"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oadbd:", err)
	os.Exit(1)
}
