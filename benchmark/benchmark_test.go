package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/types"
)

// digester hashes rows and statements for the determinism tests.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) str(s string) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(s)))
	d.h.Write(n[:])
	d.h.Write([]byte(s))
}

func (d *digester) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) row(table string, row types.Row) {
	d.str(table)
	for _, v := range row {
		switch v.Typ {
		case types.Float64:
			d.u64(math.Float64bits(v.F))
		case types.String:
			d.str(v.S)
		default:
			d.u64(uint64(v.I))
		}
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// chDigest is the dataset digest of a seed.
func chDigest(sc chScale, seed int64) string {
	dg := newDigester()
	genCH(sc, seed).rows(dg.row)
	return dg.sum()
}

func (o op) digest(dg *digester) {
	dg.u64(uint64(o.class))
	for _, v := range []int64{o.w, o.d, o.c, o.hist, o.o, int64(len(o.lines))} {
		dg.u64(uint64(v))
	}
	dg.u64(math.Float64bits(o.amount))
	for _, l := range o.lines {
		dg.u64(uint64(l.item))
		dg.u64(uint64(l.qty))
	}
}

// opsDigest hashes the first n operations of a client's stream.
func opsDigest(sc chScale, seed int64, part, parts, n int) string {
	g, dg := newOLTPGen(sc, seed, part, parts), newDigester()
	for i := 0; i < n; i++ {
		g.next().digest(dg)
	}
	return dg.sum()
}

func TestGeneratorDeterminism(t *testing.T) {
	if a, b := chDigest(scaleSmoke, 1), chDigest(scaleSmoke, 1); a != b {
		t.Errorf("same seed, different datasets: %s %s", a, b)
	}
	if chDigest(scaleSmoke, 1) == chDigest(scaleSmoke, 2) {
		t.Error("seeds 1 and 2 give the same dataset")
	}
	if a, b := opsDigest(scaleCH4, 1, 0, 2, 5000), opsDigest(scaleCH4, 1, 0, 2, 5000); a != b {
		t.Errorf("same seed, different operation streams: %s %s", a, b)
	}
	if opsDigest(scaleCH4, 1, 0, 2, 5000) == opsDigest(scaleCH4, 2, 0, 2, 5000) {
		t.Error("seeds 1 and 2 give the same operation stream")
	}
	if opsDigest(scaleCH4, 1, 0, 2, 5000) == opsDigest(scaleCH4, 1, 1, 2, 5000) {
		t.Error("clients 0 and 1 get the same operation stream")
	}
	readings := func(seed int64) string {
		g, dg := newMetricsGen(seed), newDigester()
		for i := 0; i < 5000; i++ {
			dg.row("metrics", g.next().row())
		}
		return dg.sum()
	}
	if readings(1) != readings(1) || readings(1) == readings(2) {
		t.Error("the telemetry stream is not a function of the seed alone")
	}
}

// Two clients must never write the same district or stock row: a
// write-write conflict would fail an operation.
func TestClientsWriteDisjointRows(t *testing.T) {
	type key struct {
		kind string
		w, n int64
	}
	owner := map[key]int{}
	for part := 0; part < numClients; part++ {
		g := newOLTPGen(scaleSmoke, 1, part, numClients)
		for i := 0; i < 20000; i++ {
			o := g.next()
			var keys []key
			switch o.class {
			case clPayment, clNewOrder:
				keys = append(keys, key{"district", o.w, o.d})
				for _, l := range o.lines {
					keys = append(keys, key{"stock", o.w, l.item})
				}
			}
			for _, k := range keys {
				if p, seen := owner[k]; seen && p != part {
					t.Fatalf("clients %d and %d both write %v", p, part, k)
				}
				owner[k] = part
			}
		}
	}
}

func TestPercentileAndSampleCountRules(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	// A reported tail percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		thin bool
	}{{19, 50, true}, {20, 50, false}, {99, 90, true}, {100, 90, false}, {999, 99, true}, {1000, 99, false}, {9999, 99.9, true}, {10000, 99.9, false}} {
		if got := (metric{Samples: c.n, Percentile: c.p}).thin(); got != c.thin {
			t.Errorf("p%v of %d samples: thin = %v, want %v (%d beyond)", c.p, c.n, got, c.thin, beyond(c.n, c.p))
		}
	}
	if (metric{Samples: 3}).thin() {
		t.Error("a metric that is not a percentile is never thin")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(s[:10])
	if q1 != 2.75 || q3 != 8.25 || median(s[:10]) != 5.5 {
		t.Errorf("quartiles(1..10) = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(s[:10]))
	}
}

func TestCompareVerdict(t *testing.T) {
	lower := metricDef{Name: "p50", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "tput", Better: "higher", Bound: 0.05}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	for _, c := range []struct {
		name string
		d    metricDef
		o, n summary
		want string
	}{
		{"same", lower, tight(10), tight(10), "ok"},
		{"within bound", lower, tight(10), tight(10.4), "ok"},
		{"slower", lower, tight(10), tight(10.6), "worse"},
		{"faster", lower, tight(10), tight(5), "ok"},
		{"less throughput", higher, tight(100), tight(94), "worse"},
		{"more throughput", higher, tight(100), tight(120), "ok"},
		{"noisy old", lower, wide(10), tight(20), "unresolved"},
		{"noisy new", higher, tight(100), wide(50), "unresolved"},
	} {
		if got := verdict(c.d, c.o, c.n); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, work float64) string {
		rec := &recording{Summary: map[string]map[string]map[string]summary{
			"oltp": {"e2e": {"work_per_s": tight(work), "setup_s": tight(1)}},
		}}
		path := filepath.Join(dir, name)
		if err := rec.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compareFiles(&out, write("old.json", 100), write("same.json", 101)); err != nil {
		t.Errorf("compare of like with like: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, write("old.json", 100), write("slow.json", 70)); err == nil {
		t.Errorf("compare did not fail on a 30%% loss of throughput\n%s", out.String())
	}
}

func TestReferenceCheck(t *testing.T) {
	ref := refResult{
		rows:  [][]any{{"a", int64(3)}, {"b", int64(3)}, {"c", int64(3)}, {"d", int64(1)}, {"e", int64(9)}},
		order: []orderKey{desc(1)},
		limit: 3,
	}
	for _, c := range []struct {
		name string
		got  [][]any
		ok   bool
	}{
		{"canonical", [][]any{{"e", int64(9)}, {"a", int64(3)}, {"b", int64(3)}}, true},
		{"other members of the tie", [][]any{{"e", int64(9)}, {"c", int64(3)}, {"a", int64(3)}}, true},
		{"numbers as floats", [][]any{{"e", 9.0}, {"c", 3.0}, {"a", 3.0 + 1e-12}}, true},
		{"a row twice", [][]any{{"e", int64(9)}, {"a", int64(3)}, {"a", int64(3)}}, false},
		{"wrong order", [][]any{{"a", int64(3)}, {"e", int64(9)}, {"b", int64(3)}}, false},
		{"too few", [][]any{{"e", int64(9)}, {"a", int64(3)}}, false},
		{"a row that does not exist", [][]any{{"e", int64(9)}, {"z", int64(3)}, {"b", int64(3)}}, false},
		{"wrong value", [][]any{{"e", int64(8)}, {"a", int64(3)}, {"b", int64(3)}}, false},
	} {
		if err := ref.check(c.got); (err == nil) != c.ok {
			t.Errorf("%s: check = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	unordered := refResult{rows: [][]any{{"x", 1.5}, {"y", nil}}, limit: -1}
	if err := unordered.check([][]any{{"y", nil}, {"x", 1.5}}); err != nil {
		t.Errorf("unordered result in another order: %v", err)
	}
}

// The golden files pin the dataset and the reference evaluator of seed
// 1: if either drifts, results are no longer comparable with earlier
// recordings. Rewrite them with -update-golden only on purpose.
func TestGolden(t *testing.T) {
	d := genCH(scaleCH4, 1)
	for q := range chQueries {
		want, err := os.ReadFile(filepath.Join("golden", "seed1", fmt.Sprintf("q%02d.json", q+1)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := goldenRows(d.reference(q + 1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("q%02d: the reference result differs from its golden file", q+1)
		}
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, generated any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, generated) {
		t.Error("BENCHMARK.json is not what `benchmark manifest` prints")
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 1, smoke: true, trace: trace, setups: 1,
		window: time.Second, warmup: 200 * time.Millisecond,
		tmpRoot: t.TempDir(), outDir: t.TempDir(),
	}
}

// Every workload end to end on the small datasets, with both
// correctness gates.
func TestSmoke(t *testing.T) {
	for _, workload := range workloadNames {
		t.Run(workload, func(t *testing.T) {
			t.Parallel()
			run, err := runOnce(smokeConfig(t, workload, false))
			if err != nil {
				t.Fatal(err)
			}
			if !run.Correct || run.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %s", run.Correct, run.Failed, run.Error)
			}
			for _, d := range endToEndDefs {
				if m, ok := run.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s = %+v, want a value in %s", d.Name, m, d.Unit)
				}
			}
			// A one-second window on a loaded machine may hold no whole
			// pass; these it always holds.
			for _, name := range []string{"setup_s", "work_per_s", "mem_bytes_per_row"} {
				if !(run.Metrics[name].Value > 0) {
					t.Errorf("%s = %v, want a positive value", name, run.Metrics[name].Value)
				}
			}
		})
	}
}

// A traced run reports every per-layer metric, and its span file obeys
// the tracing rules.
func TestTracedSmoke(t *testing.T) {
	cfg := smokeConfig(t, "mixed", true)
	cfg.window = 2 * time.Second
	run, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Correct {
		t.Fatal(run.Error)
	}
	for _, d := range layerDefs {
		if _, ok := run.Metrics[d.Name]; !ok {
			t.Errorf("%s is not reported", d.Name)
		}
	}
	for _, name := range []string{"client.read_p50_ms", "client.q05_p50_ms", "db.point_select_us", "core.get_us", "wal.fsync_us"} {
		if !(run.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want a positive value", name, run.Metrics[name].Value)
		}
	}
	data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-mixed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		ID, Parent, Op uint32
		Name           string
		Start          int64 `json:"start_ns"`
		End            int64 `json:"end_ns"`
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	byID := map[uint32]int{}
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := map[uint32]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Op != s.ID {
				t.Fatalf("root span %+v does not carry its own id as op", s)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %+v has no parent in the file", s)
		}
		if spans[p].Op != s.Op {
			t.Fatalf("span %+v and its parent are of different operations", s)
		}
		if s.Name == "sched.wait" || s.Name == "server.exec" {
			children[s.Parent] += s.End - s.Start
		}
	}
	for id, sum := range children {
		if st := spans[byID[id]]; sum > st.End-st.Start {
			t.Errorf("statement %+v is shorter than its wait and exec, %d ns", st, sum)
		}
	}
}
