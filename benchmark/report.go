package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runRecord is the outcome of one run.
type runRecord struct {
	Workload     string            `json:"workload"`
	Trace        bool              `json:"trace"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Error        string            `json:"error,omitempty"`
	SpansDropped int               `json:"spans_dropped,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
}

// contract is the object the driver reads from the last line.
func (r runRecord) contract() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for name, m := range r.Metrics {
		ms[name] = value{m.Value, m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}
}

// summary is a metric over the repeated runs of one workload.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
	// Samples is the smallest sample count among the runs.
	Samples    int     `json:"samples"`
	Percentile float64 `json:"percentile,omitempty"`
}

func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// recording is what one invocation writes: where and how it ran, every
// run, and per workload and metric the median with quartiles. The text
// report is printed from it.
type recording struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Filesystem string  `json:"tmp_filesystem"`
	Seed       int64   `json:"seed"`
	WindowS    int     `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Repeat     int     `json:"repeat"`
	Clients    int     `json:"clients"`
	Loop       string  `json:"loop"`
	Flush      string  `json:"flush_policy"`

	Runs []runRecord `json:"runs"`
	// Summary is keyed by workload, then "e2e" or "layer", then metric.
	Summary map[string]map[string]map[string]summary `json:"summary"`
}

func newRecording(seed int64, seconds, repeat int) *recording {
	return &recording{
		Commit: gitCommit(), GoVersion: runtime.Version(), CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Filesystem: filesystemOf(tmpRoot),
		Seed: seed, WindowS: seconds, WarmupS: warmup.Seconds(), Repeat: repeat,
		Clients: numClients, Loop: "closed",
		Flush: "group commit (SyncGroup, 200us window), real fsync on the temp directory's filesystem; " +
			"latencies are this sandbox's, not a device's",
	}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type under path, from the longest
// matching mount point.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fstype = mp, f[2]
		}
	}
	return fstype
}

func kind(trace bool) string {
	if trace {
		return "layer"
	}
	return "e2e"
}

// summarize fills Summary from Runs.
func (rec *recording) summarize() {
	type key struct{ workload, kind, metric string }
	values := map[key][]float64{}
	samples := map[key]int{}
	last := map[key]metric{}
	for _, r := range rec.Runs {
		for name, m := range r.Metrics {
			k := key{r.Workload, kind(r.Trace), name}
			if _, seen := last[k]; !seen || m.Samples < samples[k] {
				samples[k] = m.Samples
			}
			values[k] = append(values[k], m.Value)
			last[k] = m
		}
	}
	rec.Summary = map[string]map[string]map[string]summary{}
	for k, v := range values {
		if rec.Summary[k.workload] == nil {
			rec.Summary[k.workload] = map[string]map[string]summary{}
		}
		if rec.Summary[k.workload][k.kind] == nil {
			rec.Summary[k.workload][k.kind] = map[string]summary{}
		}
		q1, q3 := quartiles(v)
		rec.Summary[k.workload][k.kind][k.metric] = summary{median(v), q1, q3, last[k].Unit, len(v), samples[k], last[k].Percentile}
	}
}

func (rec *recording) write(path string) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadRecording(path string) (*recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &recording{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// print writes the text report: every metric by name with its unit and
// sample count, and with quartiles when runs were repeated.
func (rec *recording) print(w io.Writer) {
	fmt.Fprintf(w, "oadb benchmark  commit %s  %s  %s  nproc %d  GOMAXPROCS %d  tmp on %s\n",
		rec.Commit, rec.GoVersion, rec.CPU, rec.NumCPU, rec.GOMAXPROCS, rec.Filesystem)
	fmt.Fprintf(w, "seed %d  %s loop, %d clients  warm-up %gs  window %ds  runs per workload %d\nflush: %s\n",
		rec.Seed, rec.Loop, rec.Clients, rec.WarmupS, rec.WindowS, rec.Repeat, rec.Flush)
	for _, workload := range workloadNames {
		for _, k := range []string{"e2e", "layer"} {
			ms := rec.Summary[workload][k]
			if len(ms) == 0 {
				continue
			}
			fmt.Fprintf(w, "\n== %s (%s) ==\n", workload, k)
			names := make([]string, 0, len(ms))
			for n := range ms {
				names = append(names, n)
			}
			sort.Strings(names)
			flat := map[string]metric{}
			for _, n := range names {
				s := ms[n]
				flat[n] = metric{Value: s.Median, Unit: s.Unit}
				fmt.Fprintf(w, "%-34s %14.4f %-8s n=%-7d", n, s.Median, s.Unit, s.Samples)
				if s.Runs > 1 {
					fmt.Fprintf(w, " q1=%.4f q3=%.4f spread=%.1f%%", s.Q1, s.Q3, 100*s.spread())
				}
				if (metric{Samples: s.Samples, Percentile: s.Percentile}).thin() && s.Samples > 0 {
					fmt.Fprintf(w, " thin: fewer than %d samples beyond p%g", minBeyond, s.Percentile)
				}
				fmt.Fprintln(w)
			}
			if k == "layer" {
				for _, line := range budgetLines(flat) {
					fmt.Fprintln(w, line)
				}
			}
		}
	}
	for _, r := range rec.Runs {
		if !r.Correct {
			fmt.Fprintf(w, "FAILED %s: %s\n", r.Workload, r.Error)
		}
		if r.SpansDropped > 0 {
			fmt.Fprintf(w, "%s: %d spans beyond the buffer were not kept\n", r.Workload, r.SpansDropped)
		}
	}
}

// manifest is BENCHMARK.json, generated from the definitions the
// benchmark computes with so that the two cannot disagree.
func manifest() any {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var layers []layer
	for _, d := range layerDefs {
		layers = append(layers, layer{d.Name, d.Unit, d.Better})
	}
	return struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads: []workload{
			{"oltp", "2 OLTP clients on CH 4 warehouses: loads wire, lanes, plan cache, point paths, commit and fsync; no operator work. work=ops short=read long=COMMIT."},
			{"olap", "2 analysts cycling the 17 CH queries, no writer: loads planner, operators, column scans; WAL idle. Mirror of oltp. work=queries short=one query long=17-query pass."},
			{"mixed", "1 OLTP client + 1 analyst, merge daemon on: lane priority, scans over delta while commits land; the paper's scenario. work=OLTP ops short=read long=pass."},
			{"ingest", "1 writer (50-row inserts) + 1 dashboard on 200k telemetry rows: large commits, a merge a second, zone-map pruning on ts. work=rows short=insert long=dashboard, first quarter of the window."},
		},
		EndToEnd: endToEndDefs,
		PerLayer: layers,
	}
}

// compareFiles prints, per workload and end-to-end metric, old, new,
// their ratio and a verdict, and fails on any "worse".
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldRec, err := loadRecording(oldPath)
	if err != nil {
		return err
	}
	newRec, err := loadRecording(newPath)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Fprintf(w, "%-8s %-20s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "new/old", "verdict")
	for _, workload := range workloadNames {
		for _, d := range endToEndDefs {
			o, ok1 := oldRec.Summary[workload]["e2e"][d.Name]
			n, ok2 := newRec.Summary[workload]["e2e"][d.Name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(d, o, n)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-8s %-20s %14.4f %14.4f %9.4f  %s (bound %.0f%%, spread old %.1f%% new %.1f%%)\n",
				workload, d.Name, o.Median, n.Median, ratio(n.Median, o.Median), v,
				100*d.Bound, 100*o.spread(), 100*n.spread())
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse beyond their bound", worse)
	}
	return nil
}

// verdict classifies a change of one metric: unresolved when either
// side's own spread is wider than the bound, worse when the new median
// is beyond the bound on the wrong side of the old, else ok.
func verdict(d metricDef, o, n summary) string {
	if o.spread() > d.Bound || n.spread() > d.Bound {
		return "unresolved"
	}
	change := ratio(n.Median-o.Median, o.Median)
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return "worse"
	}
	return "ok"
}

// goldenRows renders a reference result as the golden files store it.
func goldenRows(r refResult) ([]byte, error) {
	data, err := json.MarshalIndent(r.limited(), "", " ")
	return append(data, '\n'), err
}

// writeGolden rewrites the 17 golden files of a seed.
func writeGolden(dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := genCH(scaleCH4, seed)
	for q := range chQueries {
		data, err := goldenRows(d.reference(q + 1))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("q%02d.json", q+1)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
