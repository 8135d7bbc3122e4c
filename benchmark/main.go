// Command benchmark is oadb's scoreboard: four closed-loop workloads
// driven through the public client package over loopback TCP against an
// embedded server on a durable database, with correctness gates, a
// traced variant and an in-process layer ladder. See README.md.
//
//	benchmark [-workload name|all] [-seed N] [-seconds S] [-trace 0|1|both] [-repeat K]
//	benchmark compare OLD.json NEW.json
//	benchmark manifest
//	benchmark -update-golden [-seed N]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Fixed by the benchmark, not by the caller.
const (
	defaultSeconds = 20
	warmup         = 2 * time.Second
	// setupsPerRun is how often an untraced run sets up, to report the
	// median; a traced run does not report setup_s and sets up once.
	setupsPerRun = 3
	outDir       = "benchmark/out"
	tmpRoot      = ".bench_build/tmp"
	goldenDir    = "benchmark/golden"
)

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			if len(args) != 3 {
				return errors.New("usage: benchmark compare OLD.json NEW.json")
			}
			return compareFiles(os.Stdout, args[1], args[2])
		case "manifest":
			return json.NewEncoder(os.Stdout).Encode(manifest())
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "oltp, olap, mixed, ingest or all")
	seed := fs.Int64("seed", 1, "seed of the dataset and the operation streams")
	seconds := fs.Int("seconds", defaultSeconds, "measured window of one run, in seconds")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics and the ladder; both")
	repeat := fs.Int("repeat", 1, "runs per workload; the recording then carries medians with quartiles")
	smoke := fs.Bool("smoke", false, "small datasets and short warm-up, for a quick check of the harness")
	updateGolden := fs.Bool("update-golden", false, "rewrite the golden result files of -seed and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *updateGolden {
		return writeGolden(filepath.Join(goldenDir, fmt.Sprintf("seed%d", *seed)), *seed)
	}
	names := workloadNames
	if *workload != "all" {
		if _, ok := workloadRoles[*workload]; !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		names = []string{*workload}
	}
	var traces []bool
	switch *trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both, not %q", *trace)
	}
	if *seconds < 1 || *repeat < 1 {
		return errors.New("-seconds and -repeat must be at least 1")
	}
	for _, dir := range []string{outDir, tmpRoot} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	rec := newRecording(*seed, *seconds, *repeat)
	for _, name := range names {
		for _, traced := range traces {
			for i := 0; i < *repeat; i++ {
				cfg := runConfig{
					workload: name, seed: *seed, trace: traced, smoke: *smoke,
					window: time.Duration(*seconds) * time.Second, warmup: warmup,
					setups: setupsPerRun, tmpRoot: tmpRoot, outDir: outDir,
				}
				if *smoke {
					cfg.warmup = 200 * time.Millisecond
				}
				if traced {
					cfg.setups = 1
				}
				run, err := runOnce(cfg)
				if err != nil {
					return err
				}
				rec.Runs = append(rec.Runs, run)
			}
		}
	}
	rec.summarize()
	path := filepath.Join(outDir, fmt.Sprintf("recording-%d-%d.json", time.Now().Unix(), os.Getpid()))
	if err := rec.write(path); err != nil {
		return err
	}
	rec.print(os.Stdout)
	fmt.Println("recording:", path)
	last := rec.Runs[len(rec.Runs)-1]
	// The driver reads the last line of standard output.
	if err := json.NewEncoder(os.Stdout).Encode(last.contract()); err != nil {
		return err
	}
	for _, r := range rec.Runs {
		if !r.Correct {
			return fmt.Errorf("%s: %s", r.Workload, r.Error)
		}
	}
	return nil
}

// runOnce performs one run and turns what it measured into metrics. A
// failed correctness gate is a result; any other failure is an error.
func runOnce(cfg runConfig) (runRecord, error) {
	run := runRecord{Workload: cfg.workload, Trace: cfg.trace, Correct: true, Metrics: map[string]metric{}}
	m, err := execute(cfg)
	var gate gateError
	switch {
	case errors.As(err, &gate):
		run.Correct, run.Error = false, err.Error()
	case err != nil:
		return run, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if m == nil {
		// The gate failed before anything was measured.
		run.Attempted = 1
		return run, nil
	}
	for _, r := range m.recs {
		run.Attempted, run.Failed = run.Attempted+r.attempted, run.Failed+r.failed
		run.SpansDropped += r.dropped
	}
	if run.Attempted == 0 {
		run.Attempted = 1
	}
	if float64(run.Failed) > 0.05*float64(run.Attempted) && run.Correct {
		run.Correct, run.Error = false, fmt.Sprintf("%d of %d operations failed", run.Failed, run.Attempted)
	}
	if !cfg.trace {
		run.Metrics = m.endToEnd()
		return run, nil
	}
	ladder, err := runLadder(cfg)
	if err != nil {
		return run, err
	}
	run.Metrics = m.perLayer(ladder)
	return run, nil
}
