// Package repro's root bench suite holds the in-process E-series
// microbenchmarks, one Benchmark family per experiment. Each experiment
// corresponds to a qualitative claim of the tutorial "Operational
// Analytics Data Management Systems" (VLDB 2016); docs/execution.md
// maps the families to the engine layers they exercise. The end-to-end
// scoreboard is benchmark/ (see benchmark/README.md).
//
// Run all:    go test -run '^$' -bench=. -benchmem
// Run one:    go test -run '^$' -bench=E4 -benchmem
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/db"
	"repro/internal/bench"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/server"
	"repro/internal/storage/colstore"
	"repro/internal/types"
)

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

const e1Rows = 200_000

func wideSchema(cols int) *types.Schema {
	cs := make([]types.Column, cols)
	cs[0] = types.Column{Name: "id", Type: types.Int64}
	for i := 1; i < cols; i++ {
		cs[i] = types.Column{Name: fmt.Sprintf("c%d", i), Type: types.Int64}
	}
	s, _ := types.NewSchema(cs, "id")
	return s
}

func wideRow(schema *types.Schema, id int64) types.Row {
	r := make(types.Row, schema.NumCols())
	r[0] = types.NewInt(id)
	for i := 1; i < schema.NumCols(); i++ {
		r[i] = types.NewInt(id * int64(i) % 1000)
	}
	return r
}

// buildDualTable loads n wide rows and returns engines in two states:
// all-delta (row store only) and all-merged (column store).
func buildDualTable(b *testing.B, n, cols int, merged bool) *core.Engine {
	b.Helper()
	e, err := core.NewEngine(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	schema := wideSchema(cols)
	if _, err := e.CreateTable("t", schema); err != nil {
		b.Fatal(err)
	}
	tx := e.Begin()
	for i := 0; i < n; i++ {
		if err := tx.Insert("t", wideRow(schema, int64(i))); err != nil {
			b.Fatal(err)
		}
		if (i+1)%10000 == 0 {
			tx.Commit()
			tx = e.Begin()
		}
	}
	tx.Commit()
	if merged {
		if _, err := e.Merge("t"); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// scanSumQty sums column 1 over the full table.
func scanSum(b *testing.B, e *core.Engine, proj []int) int64 {
	tx := e.Begin()
	defer tx.Abort()
	var sum int64
	_, err := tx.ScanCtx(context.Background(), "t", proj, nil, func(batch *types.Batch) bool {
		for _, v := range batch.Cols[0].Ints {
			sum += v
		}
		return true
	})
	if err != nil {
		b.Fatal(err)
	}
	return sum
}

// ---------------------------------------------------------------------
// E1 — Columnar layout beats row layout for analytic scans; row store
// wins point access. (Tutorial §1/§4: transposed files [4], DSM [7].)
// ---------------------------------------------------------------------

func BenchmarkE1_AnalyticScan_RowStore(b *testing.B) {
	e := buildDualTable(b, e1Rows, 16, false)
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanSum(b, e, []int{1})
	}
	b.ReportMetric(float64(e1Rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

func BenchmarkE1_AnalyticScan_ColumnStore(b *testing.B) {
	e := buildDualTable(b, e1Rows, 16, true)
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanSum(b, e, []int{1})
	}
	b.ReportMetric(float64(e1Rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

func BenchmarkE1_PointLookup_RowStore(b *testing.B) {
	e := buildDualTable(b, e1Rows, 16, false)
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		key := types.Row{types.NewInt(int64(rng.Intn(e1Rows)))}
		if _, ok, _ := tx.Get("t", key); !ok {
			b.Fatal("miss")
		}
		tx.Abort()
	}
}

func BenchmarkE1_PointLookup_ColumnStore(b *testing.B) {
	e := buildDualTable(b, e1Rows, 16, true)
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		key := types.Row{types.NewInt(int64(rng.Intn(e1Rows)))}
		if _, ok, _ := tx.Get("t", key); !ok {
			b.Fatal("miss")
		}
		tx.Abort()
	}
}

// ---------------------------------------------------------------------
// E2 — Compression trade-offs: dictionary, bit-packing, FOR.
// (Tutorial §3: [15, 42].)
// ---------------------------------------------------------------------

func e2Data(card int, sorted bool) []uint64 {
	rng := rand.New(rand.NewSource(3))
	vals := make([]uint64, 1_000_000)
	for i := range vals {
		if sorted {
			vals[i] = uint64(i * card / len(vals))
		} else {
			vals[i] = uint64(rng.Intn(card))
		}
	}
	return vals
}

func benchScanEncoded(b *testing.B, vals []uint64, enc string) {
	switch enc {
	case "bitpack":
		p := compress.Pack(vals, compress.BitWidthFor(uint64(len(vals))))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ScanRange(10, 20, nil)
		}
		b.ReportMetric(float64(p.SizeBytes())/float64(len(vals)), "bytes/val")
	case "raw":
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sel := []int(nil)
			for j, v := range vals {
				if v >= 10 && v < 20 {
					sel = append(sel, j)
				}
			}
			_ = sel
		}
		b.ReportMetric(8, "bytes/val")
	}
}

func BenchmarkE2_Scan(b *testing.B) {
	for _, card := range []int{10, 1000, 100000} {
		for _, sorted := range []bool{true, false} {
			order := "shuffled"
			if sorted {
				order = "sorted"
			}
			vals := e2Data(card, sorted)
			for _, enc := range []string{"raw", "bitpack"} {
				b.Run(fmt.Sprintf("card=%d/%s/%s", card, order, enc), func(b *testing.B) {
					benchScanEncoded(b, vals, enc)
				})
			}
		}
	}
}

func BenchmarkE2_DictionaryEncode(b *testing.B) {
	words := make([]string, 100_000)
	for i := range words {
		words[i] = fmt.Sprintf("value-%04d", i%500)
	}
	dict := compress.BuildDictionary(words)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := dict.Encode(words); !ok {
			b.Fatal("encode failed")
		}
	}
}

// ---------------------------------------------------------------------
// E3 — Delta + merge sustains ingest on a compressed column store.
// (Tutorial §4: differential files / LSM [29,16]; HANA delta merge.)
// ---------------------------------------------------------------------

func BenchmarkE3_Ingest(b *testing.B) {
	for _, mergeEvery := range []int{0, 50_000, 10_000} {
		name := "delta-only"
		if mergeEvery > 0 {
			name = fmt.Sprintf("merge-every-%d", mergeEvery)
		}
		b.Run(name, func(b *testing.B) {
			e, _ := core.NewEngine(core.Options{})
			defer e.Close()
			schema := wideSchema(8)
			e.CreateTable("t", schema)
			b.ResetTimer()
			tx := e.Begin()
			for i := 0; i < b.N; i++ {
				if err := tx.Insert("t", wideRow(schema, int64(i))); err != nil {
					b.Fatal(err)
				}
				if (i+1)%1000 == 0 {
					tx.Commit()
					tx = e.Begin()
				}
				if mergeEvery > 0 && (i+1)%mergeEvery == 0 {
					tx.Commit()
					e.Merge("t")
					tx = e.Begin()
				}
			}
			tx.Commit()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkE3_ScanFreshness: analytic scan latency as a function of how
// much data sits unmerged in the delta (the merge-threshold trade-off).
func BenchmarkE3_ScanVsDeltaShare(b *testing.B) {
	const total = 200_000
	for _, deltaPct := range []int{0, 10, 50, 100} {
		b.Run(fmt.Sprintf("delta=%d%%", deltaPct), func(b *testing.B) {
			e, _ := core.NewEngine(core.Options{})
			defer e.Close()
			schema := wideSchema(8)
			e.CreateTable("t", schema)
			split := total * (100 - deltaPct) / 100
			tx := e.Begin()
			for i := 0; i < total; i++ {
				tx.Insert("t", wideRow(schema, int64(i)))
				if (i+1)%10000 == 0 {
					tx.Commit()
					tx = e.Begin()
				}
				if i+1 == split {
					tx.Commit()
					e.Merge("t")
					tx = e.Begin()
				}
			}
			tx.Commit()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanSum(b, e, []int{1})
			}
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// ---------------------------------------------------------------------
// E4 — The headline: one dual-format engine sustains OLTP while serving
// OLAP (CH-benCHmark). Series: OLTP throughput vs analytic threads.
// (Tutorial §3 HANA/DBIM, §4 HyPer [19], CH [6].)
// ---------------------------------------------------------------------

func runE4(b *testing.B, analyticThreads int) {
	e, err := core.NewEngine(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := bench.CreateTables(e); err != nil {
		b.Fatal(err)
	}
	sc := bench.DefaultScale()
	if err := bench.Load(e, sc, 1); err != nil {
		b.Fatal(err)
	}
	for _, tbl := range []string{bench.TOrderLine, bench.TOrders, bench.TCustomer, bench.TStock} {
		e.Merge(tbl)
	}
	var hist atomic.Int64
	hist.Store(1 << 20)
	stop := make(chan struct{})
	var olapQueries atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < analyticThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qs := bench.Queries()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := bench.RunQuery(e, qs[i%len(qs)]); err == nil {
					olapQueries.Add(1)
				}
				i++
			}
		}(g)
	}
	w := &bench.Worker{E: e, Scale: sc, Rng: rand.New(rand.NewSource(99)), Ctx: context.Background(), NextHist: &hist}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunOne(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(w.Committed)/b.Elapsed().Seconds(), "txn/s")
	b.ReportMetric(float64(olapQueries.Load())/b.Elapsed().Seconds(), "olap-q/s")
	if w.Committed+w.Aborted > 0 {
		b.ReportMetric(100*float64(w.Aborted)/float64(w.Committed+w.Aborted), "abort%")
	}
}

func BenchmarkE4_MixedWorkload(b *testing.B) {
	for _, olap := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("olap=%d", olap), func(b *testing.B) {
			runE4(b, olap)
		})
	}
}

// ---------------------------------------------------------------------
// E5 — Snapshot readers never block under a live update stream.
// (Tutorial §3 BLU multiversioning.)
// ---------------------------------------------------------------------

func BenchmarkE5_ReadersUnderWrites(b *testing.B) {
	e, err := core.NewEngine(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	schema := wideSchema(4)
	e.CreateTable("t", schema)
	const rows = 1000
	tx := e.Begin()
	for i := 0; i < rows; i++ {
		tx.Insert("t", wideRow(schema, int64(i)))
	}
	tx.Commit()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes atomic.Int64
	stopWriter := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWriter() // also on b.Fatal
	wg.Add(1)
	go func() { // update stream: short transactions, continuously
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := int64(rng.Intn(rows))
			wtx := e.Begin()
			if err := wtx.Update("t", types.Row{types.NewInt(id)}, wideRow(schema, id)); err != nil {
				wtx.Abort()
				continue
			}
			if _, err := wtx.Commit(); err == nil {
				writes.Add(1)
			}
		}
	}()
	// Analytic readers: full-table scans, the access pattern the
	// tutorial's multiversioned systems keep non-blocking.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtx := e.Begin()
		n := 0
		_, err := rtx.ScanCtx(context.Background(), "t", []int{1}, nil, func(batch *types.Batch) bool {
			n += batch.Len()
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
		rtx.Abort()
	}
	b.StopTimer()
	stopWriter()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "scans/s")
	// The freshness half of the trade-off: how fast could the update
	// stream make progress while analytics ran?
	b.ReportMetric(float64(writes.Load())/b.Elapsed().Seconds(), "writes/s")
}

// ---------------------------------------------------------------------
// E6 — Morsel-parallel segment scan: one query fanned over a worker
// pool (zones dealt by an atomic cursor into per-worker batch pools).
// ---------------------------------------------------------------------

func BenchmarkE6_Scans(b *testing.B) {
	// Scaling from 1 to 4 workers is the Segment.Scan scoreboard.
	seg := e6Segment()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("segment-parallel/workers=%d", workers), func(b *testing.B) {
			n := seg.NumRows()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var acc int64
				seg.Scan(100, 0, []int{1}, nil, workers, nil, func(_ int, batch *types.Batch) bool {
					var local int64
					for _, v := range batch.Cols[0].Ints {
						local += v
					}
					atomic.AddInt64(&acc, local)
					return true
				})
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// e6Segment builds a 256-zone column segment for E6.
func e6Segment() *colstore.Segment {
	schema := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64}, {Name: "v", Type: types.Int64},
	}, "id")
	const n = 256 * colstore.ZoneSize
	bld := colstore.NewBuilder(schema, 1)
	for i := 0; i < n; i++ {
		bld.Add(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 4096))})
	}
	return bld.Build()
}

// ---------------------------------------------------------------------
// E10 — Vectorized beats tuple-at-a-time execution: an interpreted
// filter plus a typed SUM over batch sizes from 1 (volcano) to 8192.
// (Tutorial §3/§4: [28,41].) The specialized typed filter kernels live
// in the column store's scan and are measured by E17.
// ---------------------------------------------------------------------

func e10Rows() []types.Row {
	rows := make([]types.Row, 500_000)
	s := wideSchema(2)
	for i := range rows {
		rows[i] = wideRow(s, int64(i))
	}
	return rows
}

func BenchmarkE10_Execution(b *testing.B) {
	rows := e10Rows()
	schema := wideSchema(2)
	pred := &exec.BinOp{Kind: exec.OpLt, L: &exec.ColRef{Idx: 0}, R: &exec.Const{Val: types.NewInt(250_000)}}
	for _, batchSize := range []int{1, 64, 1024, 8192} {
		name := fmt.Sprintf("interpreted/batch=%d", batchSize)
		if batchSize == 1 {
			name = "interpreted/batch=1(volcano)"
		}
		b.Run(name, func(b *testing.B) {
			src := exec.NewSourceFromRows(schema, rows, batchSize)
			agg := exec.NewHashAggregate(exec.NewFilter(src, pred), nil, nil,
				[]exec.AggSpec{{Func: exec.AggSum, Col: 0}})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg.Reset()
				if _, err := exec.Collect(agg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// ---------------------------------------------------------------------
// E13 — Vectorized blocking operators: the columnar hash join,
// permutation sort, Top-K, and typed DISTINCT (PR 4) vs the
// row-at-a-time implementations they replaced (boxed types.Row values,
// map[uint64][]types.Row tables, per-match Clone+append). The rowwise
// series reproduce the old operators inline so the speedup stays
// visible in one run. Vectorized series report allocs/op: the
// probe/emit paths are allocation-free once warm, independent of row
// count.
// ---------------------------------------------------------------------

const (
	e13BuildRows = 50_000
	e13ProbeRows = 200_000
)

func e13DimSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "k", Type: types.Int64}, {Name: "dv", Type: types.Float64},
	}, "k")
}

func e13FactSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "fk", Type: types.Int64}, {Name: "fv", Type: types.Int64},
	})
}

func e13JoinFixture() (buildRows, probeRows []types.Row) {
	buildRows = make([]types.Row, e13BuildRows)
	for i := range buildRows {
		buildRows[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i))}
	}
	probeRows = make([]types.Row, e13ProbeRows)
	rng := rand.New(rand.NewSource(13))
	for i := range probeRows {
		// ~17% of probe keys miss the build side.
		probeRows[i] = types.Row{types.NewInt(int64(rng.Intn(e13BuildRows * 6 / 5))), types.NewInt(int64(i))}
	}
	return buildRows, probeRows
}

// e13RowwiseJoin reproduces the pre-PR-4 HashJoin: boxed rows hashed
// into a Go map, per-match Clone+append into a fresh batch.
func e13RowwiseJoin(b *testing.B, left, right exec.Operator, lk, rk []int) int {
	table := make(map[uint64][]types.Row)
	for {
		batch, err := right.Next()
		if err != nil {
			b.Fatal(err)
		}
		if batch == nil {
			break
		}
		for i := 0; i < batch.Len(); i++ {
			row := batch.Row(i)
			h := types.HashRow(row, rk)
			table[h] = append(table[h], row)
		}
	}
	n := 0
	for {
		batch, err := left.Next()
		if err != nil {
			b.Fatal(err)
		}
		if batch == nil {
			return n
		}
		out := types.NewBatch(&types.Schema{Cols: append(append([]types.Column{}, left.Schema().Cols...), right.Schema().Cols...)}, batch.Len())
		for i := 0; i < batch.Len(); i++ {
			lrow := batch.Row(i)
			h := types.HashRow(lrow, lk)
			for _, rrow := range table[h] {
				match := true
				for kk := range lk {
					if types.Compare(lrow[lk[kk]], rrow[rk[kk]]) != 0 {
						match = false
						break
					}
				}
				if match {
					out.AppendRow(append(lrow.Clone(), rrow...))
					n++
				}
			}
		}
	}
}

func BenchmarkE13_JoinSort(b *testing.B) {
	buildRows, probeRows := e13JoinFixture()
	dimS, factS := e13DimSchema(), e13FactSchema()
	totalJoin := float64(e13BuildRows + e13ProbeRows)

	b.Run("join/columnar", func(b *testing.B) {
		left := exec.NewSourceFromRows(factS, probeRows, 4096)
		right := exec.NewSourceFromRows(dimS, buildRows, 4096)
		j := exec.NewHashJoin(left, right, []int{0}, []int{0}, exec.InnerJoin)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j.Reset()
			if n, err := exec.CollectCount(j); err != nil || n == 0 {
				b.Fatalf("join: %d rows, %v", n, err)
			}
		}
		b.ReportMetric(totalJoin*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
	})
	b.Run("join/columnar-left", func(b *testing.B) {
		left := exec.NewSourceFromRows(factS, probeRows, 4096)
		right := exec.NewSourceFromRows(dimS, buildRows, 4096)
		j := exec.NewHashJoin(left, right, []int{0}, []int{0}, exec.LeftJoin)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j.Reset()
			if n, err := exec.CollectCount(j); err != nil || n < e13ProbeRows {
				b.Fatalf("left join: %d rows, %v", n, err)
			}
		}
		b.ReportMetric(totalJoin*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
	})
	b.Run("join/rowwise", func(b *testing.B) {
		left := exec.NewSourceFromRows(factS, probeRows, 4096)
		right := exec.NewSourceFromRows(dimS, buildRows, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			left.Reset()
			right.Reset()
			if n := e13RowwiseJoin(b, left, right, []int{0}, []int{0}); n == 0 {
				b.Fatal("rowwise join empty")
			}
		}
		b.ReportMetric(totalJoin*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
	})

	sortKeys := []exec.SortKey{
		{E: &exec.ColRef{Idx: 0}},
		{E: &exec.ColRef{Idx: 1}, Desc: true},
	}
	b.Run("sort/vectorized", func(b *testing.B) {
		src := exec.NewSourceFromRows(factS, probeRows, 4096)
		s := exec.NewSort(src, sortKeys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset()
			if n, err := exec.CollectCount(s); err != nil || n != e13ProbeRows {
				b.Fatalf("sort: %d rows, %v", n, err)
			}
		}
		b.ReportMetric(float64(e13ProbeRows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
	})
	b.Run("sort/rowwise", func(b *testing.B) {
		src := exec.NewSourceFromRows(factS, probeRows, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The pre-PR-4 Sort: boxed key rows + sort.SliceStable.
			src.Reset()
			type keyed struct{ row, keys types.Row }
			var rows []keyed
			for {
				batch, err := src.Next()
				if err != nil {
					b.Fatal(err)
				}
				if batch == nil {
					break
				}
				for r := 0; r < batch.Len(); r++ {
					row := batch.Row(r)
					rows = append(rows, keyed{row: row, keys: types.Row{row[0], row[1]}})
				}
			}
			sort.SliceStable(rows, func(x, y int) bool {
				c := types.Compare(rows[x].keys[0], rows[y].keys[0])
				if c != 0 {
					return c < 0
				}
				return types.Compare(rows[x].keys[1], rows[y].keys[1]) > 0
			})
			out := types.NewBatch(factS, len(rows))
			for _, r := range rows {
				out.AppendRow(r.row)
			}
			if out.Len() != e13ProbeRows {
				b.Fatal("rowwise sort lost rows")
			}
		}
		b.ReportMetric(float64(e13ProbeRows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
	})

	b.Run("topk/vectorized/k=100", func(b *testing.B) {
		src := exec.NewSourceFromRows(factS, probeRows, 4096)
		t := exec.NewTopN(src, sortKeys, 100)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Reset()
			if n, err := exec.CollectCount(t); err != nil || n != 100 {
				b.Fatalf("topk: %d rows, %v", n, err)
			}
		}
		b.ReportMetric(float64(e13ProbeRows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
	})

	b.Run("distinct/typed", func(b *testing.B) {
		var rows []types.Row
		for i := 0; i < e13ProbeRows; i++ {
			rows = append(rows, types.Row{types.NewInt(int64(i % 512)), types.NewInt(int64(i % 7))})
		}
		src := exec.NewSourceFromRows(factS, rows, 4096)
		d := exec.NewDistinct(src)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Reset()
			if n, err := exec.CollectCount(d); err != nil || n == 0 {
				b.Fatalf("distinct: %d rows, %v", n, err)
			}
		}
		b.ReportMetric(float64(e13ProbeRows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
	})
}

// ---------------------------------------------------------------------
// E14 — Morsel-driven parallel pipelines (PR 5): filter → partial
// aggregation / join build / sort-run generation execute on the scan
// workers themselves (thread-local breaker state merged once), instead
// of funnelling every batch through a single-threaded consumer.
// workers=1 is the funnel baseline: the same engine, same morsel scan,
// but all operator work serialized behind the scan channel — exactly
// the pre-PR-5 execution. Mrows/s scaling across the workers series is
// the scoreboard; allocs/op shows the per-execution setup cost only
// (the per-morsel path allocates nothing; see
// TestPipelineWorkerStageAllocs).
// ---------------------------------------------------------------------

const (
	e14Rows   = 512 * 1024
	e14Groups = 61
)

// e14Engine loads one merged table on an 8-way engine. The pipeline
// width is chosen per series via exec.MarkPipeline, so every series
// scans identical storage.
func e14Engine(b *testing.B) *core.Engine {
	b.Helper()
	e, err := core.NewEngine(core.Options{Parallelism: 8})
	if err != nil {
		b.Fatal(err)
	}
	schema := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "grp", Type: types.Int64},
		{Name: "v", Type: types.Int64},
	}, "id")
	if _, err := e.CreateTable("t", schema); err != nil {
		b.Fatal(err)
	}
	tx := e.Begin()
	for i := 0; i < e14Rows; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % e14Groups)),
			types.NewInt(int64(i%10_000) - 5_000),
		}
		if err := tx.Insert("t", row); err != nil {
			b.Fatal(err)
		}
		if (i+1)%20_000 == 0 {
			tx.Commit()
			tx = e.Begin()
		}
	}
	tx.Commit()
	if _, err := e.Merge("t"); err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkE14_ParallelPipeline(b *testing.B) {
	e := e14Engine(b)
	defer e.Close()

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("groupagg/workers=%d", workers), func(b *testing.B) {
			tx := e.Begin()
			defer tx.Abort()
			ts, err := tx.ScanOperator(context.Background(), "t", []int{1, 2}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer ts.Close()
			agg := exec.NewHashAggregate(exec.MarkPipeline(ts, workers),
				[]int{0}, nil,
				[]exec.AggSpec{
					{Func: exec.AggCountStar, Name: "n"},
					{Func: exec.AggSum, Col: 1, Name: "sv"},
					{Func: exec.AggMin, Col: 1, Name: "minv"},
				})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg.Reset()
				n, err := exec.CollectCount(agg)
				if err != nil || n != e14Groups {
					b.Fatalf("groups = %d, err = %v", n, err)
				}
			}
			b.ReportMetric(float64(e14Rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}

	probeSchema := types.MustSchema([]types.Column{
		{Name: "k", Type: types.Int64}, {Name: "tag", Type: types.Int64},
	})
	probeRows := make([]types.Row, 4096)
	for i := range probeRows {
		probeRows[i] = types.Row{types.NewInt(int64(i * (e14Rows / 4096))), types.NewInt(int64(i))}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("joinbuild/workers=%d", workers), func(b *testing.B) {
			tx := e.Begin()
			defer tx.Abort()
			ts, err := tx.ScanOperator(context.Background(), "t", []int{0, 1}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer ts.Close()
			probe := exec.NewSourceFromRows(probeSchema, probeRows, 4096)
			j := exec.NewHashJoin(probe, exec.MarkPipeline(ts, workers), []int{0}, []int{0}, exec.InnerJoin)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.Reset()
				n, err := exec.CollectCount(j)
				if err != nil || n != len(probeRows) {
					b.Fatalf("join rows = %d, err = %v", n, err)
				}
			}
			b.ReportMetric(float64(e14Rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}

	sortKeys := []exec.SortKey{{E: &exec.ColRef{Idx: 1}}, {E: &exec.ColRef{Idx: 0}, Desc: true}}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("sortruns/workers=%d", workers), func(b *testing.B) {
			tx := e.Begin()
			defer tx.Abort()
			ts, err := tx.ScanOperator(context.Background(), "t", []int{0, 2}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer ts.Close()
			s := exec.NewSort(exec.MarkPipeline(ts, workers), sortKeys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset()
				n, err := exec.CollectCount(s)
				if err != nil || n != e14Rows {
					b.Fatalf("sort rows = %d, err = %v", n, err)
				}
			}
			b.ReportMetric(float64(e14Rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// ---------------------------------------------------------------------
// E11 — Zone maps (storage indexes) prune scans on clustered data and
// cannot on shuffled data. (Tutorial §3: Oracle DBIM.)
// ---------------------------------------------------------------------

func e11Segment(clustered bool) *colstore.Segment {
	schema := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64}, {Name: "v", Type: types.Int64},
	}, "id")
	const n = 512 * colstore.ZoneSize
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	if !clustered {
		rng := rand.New(rand.NewSource(11))
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	bld := colstore.NewBuilder(schema, 1)
	for i := 0; i < n; i++ {
		bld.Add(types.Row{types.NewInt(int64(i)), types.NewInt(perm[i])})
	}
	return bld.Build()
}

func BenchmarkE11_ZoneMapPruning(b *testing.B) {
	for _, clustered := range []bool{true, false} {
		name := "clustered"
		if !clustered {
			name = "shuffled"
		}
		seg := e11Segment(clustered)
		b.Run(name, func(b *testing.B) {
			preds := []colstore.Predicate{
				{Col: 1, Op: colstore.OpGe, Val: types.NewInt(1000)},
				{Col: 1, Op: colstore.OpLt, Val: types.NewInt(2000)},
			}
			var stats colstore.ScanStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats = seg.Scan(100, 0, []int{0}, preds, 1, nil, func(_ int, batch *types.Batch) bool { return true })
			}
			b.ReportMetric(100*float64(stats.ZonesPruned)/float64(stats.ZonesTotal), "pruned%")
		})
	}
}

// --- E15: durable commit throughput -------------------------------------
//
// Claim (tutorial §3, logging): group commit amortizes the fsync across
// concurrently arriving transactions, so durable-commit throughput
// scales with committer count instead of being bound by one fsync per
// commit. "each" is the classical convoy (inline fsync per commit under
// the log mutex); "sync"/"group" ride the dedicated flusher goroutine;
// "async" acknowledges before durability (upper bound).

func BenchmarkE15_CommitThroughput(b *testing.B) {
	schema := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "v", Type: types.Int64},
	}, "id")
	for _, mode := range []core.SyncMode{core.SyncEach, core.SyncSync, core.SyncGroup, core.SyncAsync} {
		for _, committers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("sync=%s/committers=%d", mode, committers), func(b *testing.B) {
				e, err := core.NewEngine(core.Options{Dir: b.TempDir(), Sync: mode})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				if _, err := e.CreateTable("t", schema); err != nil {
					b.Fatal(err)
				}
				start := e.Log().Stats()
				var next atomic.Int64
				var failed atomic.Int64
				b.ResetTimer()
				// Explicit goroutine pool (not RunParallel): the committer
				// count is the experiment variable, independent of
				// GOMAXPROCS — group commit batches WAITING committers,
				// which exist even on one CPU.
				var wg sync.WaitGroup
				for g := 0; g < committers; g++ {
					share := b.N / committers
					if g < b.N%committers {
						share++
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							id := next.Add(1)
							tx := e.Begin()
							if err := tx.Insert("t", types.Row{types.NewInt(id), types.NewInt(id)}); err != nil {
								tx.Abort()
								failed.Add(1)
								return
							}
							if _, err := tx.Commit(); err != nil {
								failed.Add(1)
								return
							}
						}
					}(share)
				}
				wg.Wait()
				b.StopTimer()
				if failed.Load() > 0 {
					b.Fatalf("%d committers failed", failed.Load())
				}
				d := e.Log().Stats()
				b.ReportMetric(float64(d.Syncs-start.Syncs)/float64(b.N), "fsyncs/commit")
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
			})
		}
	}
}

// ---------------------------------------------------------------------
// E16 — the network front door: OLTP tail latency under analytic
// saturation, with and without the server's priority lanes + admission
// control. Clients connect over loopback TCP and speak the real wire
// protocol, so the measurement includes framing, the session layer, and
// the scheduler — the whole front door, not just the engine.
//
// lanes=on : OLTP/OLAP classification, strict OLTP priority, MaxOLAP=1.
// lanes=off: one FIFO lane, no admission control (the ablation) — point
// lookups queue behind every analytic statement ahead of them.
// ---------------------------------------------------------------------

func BenchmarkE16_MixedWorkload(b *testing.B) {
	b.Run("lanes=on", func(b *testing.B) { runE16(b, true) })
	b.Run("lanes=off", func(b *testing.B) { runE16(b, false) })
}

func runE16(b *testing.B, lanes bool) {
	d, err := db.Open(db.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	if _, err := d.Exec(ctx, "CREATE TABLE orders (id INT, cust INT, amount INT, PRIMARY KEY (id))"); err != nil {
		b.Fatal(err)
	}
	const rows = 100_000
	tx, err := d.Begin(ctx)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tx.Exec(ctx, "INSERT INTO orders (id, cust, amount) VALUES (?, ?, ?)",
			i, i%100, i%997); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	if _, err := d.Engine().Merge("orders"); err != nil {
		b.Fatal(err)
	}

	srv := server.New(d, server.Config{Workers: 2, MaxOLAP: 1, DisableLanes: !lanes})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			b.Error(err)
		}
		<-serveDone
	}()
	addr := ln.Addr().String()

	// Analytic saturators: a steady backlog of group-by scans.
	const analysts = 4
	stop := make(chan struct{})
	var olapDone atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < analysts; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			c, err := client.Dial(dctx, addr)
			cancel()
			if err != nil {
				b.Error(err)
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Exec("SELECT cust, COUNT(*), SUM(amount) FROM orders GROUP BY cust"); err != nil {
					if client.IsBusy(err) || client.IsQueueTimeout(err) {
						time.Sleep(time.Millisecond)
						continue
					}
					if client.IsShutdown(err) {
						return
					}
					b.Error(err)
					return
				}
				olapDone.Add(1)
			}
		}()
	}

	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	oltp, err := client.Dial(dctx, addr)
	cancel()
	if err != nil {
		b.Fatal(err)
	}
	defer oltp.Close()
	st, err := oltp.Prepare("SELECT amount FROM orders WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	// Let the analytic backlog build before measuring.
	for deadline := time.Now().Add(5 * time.Second); olapDone.Load() < 1 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}

	lat := make([]time.Duration, 0, b.N)
	rng := rand.New(rand.NewSource(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := rng.Intn(rows)
		t0 := time.Now()
		if _, err := st.Exec(id); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	wg.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	b.ReportMetric(float64(pct(0.50).Microseconds()), "oltp_p50_us")
	b.ReportMetric(float64(pct(0.99).Microseconds()), "oltp_p99_us")
	b.ReportMetric(float64(olapDone.Load())/b.Elapsed().Seconds(), "olap/s")
}

// ---------------------------------------------------------------------
// E17 — Scan skipping and predicate evaluation over compressed data
// (PR 9): a selectivity sweep (0.001%–100%) over int (FOR-coded) and
// string (dictionary-coded) filter columns, on clustered data — where
// segment/zone maps prune before any byte is decoded — vs shuffled
// data, where pruning cannot help and the win comes from code-domain
// predicate evaluation plus late materialization. The clustered:
// shuffled throughput ratio at <=0.1% selectivity is the headline
// number; segpruned%/decoded-per-row prove WHY it is fast.
// ---------------------------------------------------------------------

const (
	e17Rows    = 64 * colstore.ZoneSize // 4 segments x 16 zones
	e17SegRows = 16 * colstore.ZoneSize
)

func e17Store(clustered bool) *colstore.Store {
	schema := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "v", Type: types.Int64},
		{Name: "cat", Type: types.String},
		{Name: "pay", Type: types.Float64},
	}, "id")
	vals := make([]int64, e17Rows)
	for i := range vals {
		vals[i] = int64(i)
	}
	if !clustered {
		rng := rand.New(rand.NewSource(17))
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	}
	st := colstore.NewStore(schema)
	for lo := 0; lo < e17Rows; lo += e17SegRows {
		bld := colstore.NewBuilder(schema, 1)
		for i := lo; i < lo+e17SegRows; i++ {
			bld.Add(types.Row{
				types.NewInt(int64(i)),
				types.NewInt(vals[i]),
				types.NewString(fmt.Sprintf("s%06d", vals[i])),
				types.NewFloat(float64(i) * 0.25),
			})
		}
		st.AddSegment(bld.Build())
	}
	return st
}

func BenchmarkE17_ScanSkipping(b *testing.B) {
	sels := []struct {
		name string
		pct  float64
	}{
		{"0.001%", 0.001}, {"0.1%", 0.1}, {"1%", 1}, {"10%", 10}, {"100%", 100},
	}
	for _, layout := range []string{"clustered", "shuffled"} {
		st := e17Store(layout == "clustered")
		for _, colKind := range []string{"int", "dict"} {
			for _, sel := range sels {
				k := int64(float64(e17Rows) * sel.pct / 100)
				if k < 1 {
					k = 1
				}
				var preds []colstore.Predicate
				if colKind == "int" {
					preds = []colstore.Predicate{
						{Col: 1, Op: colstore.OpGe, Val: types.NewInt(0)},
						{Col: 1, Op: colstore.OpLt, Val: types.NewInt(k)},
					}
				} else {
					preds = []colstore.Predicate{
						{Col: 2, Op: colstore.OpGe, Val: types.NewString("s000000")},
						{Col: 2, Op: colstore.OpLt, Val: types.NewString(fmt.Sprintf("s%06d", k))},
					}
				}
				name := fmt.Sprintf("layout=%s/col=%s/sel=%s", layout, colKind, sel.name)
				b.Run(name, func(b *testing.B) {
					var stats colstore.ScanStats
					rows := 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rows = 0
						stats = st.Scan(100, 0, []int{0, 3}, preds, 1, nil, func(_ int, batch *types.Batch) bool {
							rows += batch.Len()
							return true
						})
					}
					if rows != int(k) {
						b.Fatalf("rows = %d, want %d", rows, k)
					}
					b.ReportMetric(float64(e17Rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
					b.ReportMetric(100*float64(stats.SegmentsPruned)/float64(stats.SegmentsTotal), "segpruned%")
					b.ReportMetric(100*float64(stats.ZonesPruned)/float64(stats.ZonesTotal), "zonepruned%")
					b.ReportMetric(float64(stats.RowsDecoded)/float64(e17Rows), "decoded/row")
				})
			}
		}
	}
}
