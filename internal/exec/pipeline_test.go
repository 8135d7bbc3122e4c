package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/types"
)

// parSource is an in-memory ParallelSource: it replays a fixed batch
// list serially through Next and deals the same batches to concurrent
// workers through ScanWorkers (an atomic cursor, like the storage
// morsel scan). Batches are delivered as-is — transient by contract —
// so it exercises the same no-retention rules as pooled storage scans.
type parSource struct {
	schema  *types.Schema
	batches []*types.Batch
	max     int
	pos     int
}

func (p *parSource) Schema() *types.Schema { return p.schema }

func (p *parSource) Next() (*types.Batch, error) {
	if p.pos >= len(p.batches) {
		return nil, nil
	}
	b := p.batches[p.pos]
	p.pos++
	return b, nil
}

func (p *parSource) Reset() { p.pos = 0 }

func (p *parSource) MaxWorkers() int { return p.max }

func (p *parSource) ScanWorkers(workers int, fn func(worker int, b *types.Batch) bool) error {
	if workers > p.max {
		workers = p.max
	}
	var cursor atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stopped.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(p.batches) {
					return
				}
				if !fn(w, p.batches[i]) {
					stopped.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return nil
}

// pipelineFixture builds a batch list over (k BIGINT, vi BIGINT,
// vf DOUBLE, ks VARCHAR) with NULL keys, NULL values, and selection
// vectors on some batches — the shapes the parallel drain must
// preserve. ks is k rendered as a string (NULL where k is NULL).
func pipelineFixture(t *testing.T, rng *rand.Rand, nBatches, batchRows, keyCard int) (*types.Schema, []*types.Batch) {
	t.Helper()
	schema := types.MustSchema([]types.Column{
		{Name: "k", Type: types.Int64},
		{Name: "vi", Type: types.Int64},
		{Name: "vf", Type: types.Float64},
		{Name: "ks", Type: types.String},
	})
	var batches []*types.Batch
	for bi := 0; bi < nBatches; bi++ {
		b := types.NewBatch(schema, batchRows)
		for r := 0; r < batchRows; r++ {
			row := make(types.Row, 4)
			if rng.Intn(10) == 0 {
				row[0] = types.NewNull(types.Int64)
				row[3] = types.NewNull(types.String)
			} else {
				k := rng.Intn(keyCard)
				row[0] = types.NewInt(int64(k))
				row[3] = types.NewString(fmt.Sprintf("key-%d", k))
			}
			if rng.Intn(13) == 0 {
				row[1] = types.NewNull(types.Int64)
			} else {
				row[1] = types.NewInt(int64(rng.Intn(1000) - 500))
			}
			row[2] = types.NewFloat(float64(rng.Intn(1000)) / 8)
			b.AppendRow(row)
		}
		// Every third batch arrives pre-selected (as if an upstream
		// kernel already filtered it).
		if bi%3 == 2 {
			var sel []int
			for r := 0; r < batchRows; r++ {
				if rng.Intn(2) == 0 {
					sel = append(sel, r)
				}
			}
			b.Sel = sel
		}
		batches = append(batches, b)
	}
	return schema, batches
}

func sortedRows(t *testing.T, rows []types.Row) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for _, v := range r {
			if v.Null {
				s += "|∅"
				continue
			}
			if v.Typ == types.Float64 {
				// Round so parallel float-merge ULP drift compares equal.
				s += fmt.Sprintf("|%.6g", v.F)
				continue
			}
			s += "|" + v.String()
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func rowSetsEqual(t *testing.T, name string, serial, parallel []types.Row) {
	t.Helper()
	a, b := sortedRows(t, serial), sortedRows(t, parallel)
	if len(a) != len(b) {
		t.Fatalf("%s: %d serial rows vs %d parallel rows", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: row %d differs: serial %s parallel %s", name, i, a[i], b[i])
		}
	}
}

func TestMarkPipelineShapes(t *testing.T) {
	schema, batches := pipelineFixture(t, rand.New(rand.NewSource(1)), 4, 64, 8)
	src := &parSource{schema: schema, batches: batches, max: 4}
	pred := &BinOp{Kind: OpGe, L: &ColRef{Idx: 1}, R: &Const{Val: types.NewInt(0)}}

	if p, ok := MarkPipeline(NewFilter(src, pred), 4).(*Pipeline); !ok {
		t.Fatal("Filter over a ParallelSource must mark a Pipeline")
	} else if p.Workers() != 4 || len(p.stages) != 1 {
		t.Fatalf("pipeline workers=%d stages=%d, want 4/1", p.Workers(), len(p.stages))
	}

	// Projection over filter over source: two stages, bottom-up order.
	proj := NewProjection(NewFilter(src, pred), []Expr{&ColRef{Idx: 0}}, []string{"k"})
	p, ok := MarkPipeline(proj, 8).(*Pipeline)
	if !ok {
		t.Fatal("Projection+Filter chain must mark a Pipeline")
	}
	if p.Workers() != 4 {
		t.Fatalf("workers must clamp to MaxWorkers: got %d", p.Workers())
	}
	if len(p.stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(p.stages))
	}
	if _, isFilter := p.stages[0].(*workerFilter); !isFilter {
		t.Fatal("stages must be bottom-up: filter first")
	}

	// Serial configuration, serial source, or a generic operator in the
	// chain: unchanged.
	if _, ok := MarkPipeline(NewFilter(src, pred), 1).(*Pipeline); ok {
		t.Fatal("workers=1 must not mark")
	}
	serialSrc := NewSource(schema, batches)
	if _, ok := MarkPipeline(NewFilter(serialSrc, pred), 4).(*Pipeline); ok {
		t.Fatal("non-parallel leaf must not mark")
	}
	one := &parSource{schema: schema, batches: batches, max: 1}
	if _, ok := MarkPipeline(NewFilter(one, pred), 4).(*Pipeline); ok {
		t.Fatal("MaxWorkers=1 source must not mark")
	}
	lim := NewLimit(NewFilter(src, pred), 10, 0)
	if _, ok := MarkPipeline(lim, 4).(*Pipeline); ok {
		t.Fatal("Limit in the chain must not mark (order-sensitive)")
	}
}

// TestPipelineSerialFallback: a Pipeline consumed through Next behaves
// exactly like the wrapped chain.
func TestPipelineSerialFallback(t *testing.T) {
	schema, batches := pipelineFixture(t, rand.New(rand.NewSource(2)), 6, 128, 8)
	pred := &BinOp{Kind: OpGe, L: &ColRef{Idx: 1}, R: &Const{Val: types.NewInt(0)}}

	plain, err := Collect(NewFilter(NewSource(schema, batches), pred))
	if err != nil {
		t.Fatal(err)
	}
	src := &parSource{schema: schema, batches: batches, max: 4}
	piped := MarkPipeline(NewFilter(src, pred), 4)
	got, err := Collect(piped)
	if err != nil {
		t.Fatal(err)
	}
	rowSetsEqual(t, "serial fallback", plain, got)
}

func aggSpecsForParity() []AggSpec {
	return []AggSpec{
		{Func: AggCountStar, Name: "n"},
		{Func: AggCount, Col: 1, Name: "cnt_vi"},
		{Func: AggSum, Col: 1, Name: "sum_vi"},
		{Func: AggMin, Col: 1, Name: "min_vi"},
		{Func: AggMax, Col: 1, Name: "max_vi"},
		{Func: AggSum, Col: 2, Name: "sum_vf"},
		{Func: AggAvg, Col: 2, Name: "avg_vf"},
		{Func: AggMin, Col: 2, Name: "min_vf"},
		{Func: AggMin, Col: 3, Name: "min_ks"},
		{Func: AggMax, Col: 3, Name: "max_ks"},
	}
}

// TestParallelGroupedAggParity: the worker-partial + merge drain must
// produce the serial drain's groups and aggregates under NULL keys,
// NULL argument values, and selection-vector inputs, for an int key, a
// string key and a two-column key — and for a key (vi) whose groups
// hold many ks values, so the workers' partial string minima differ.
func TestParallelGroupedAggParity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema, batches := pipelineFixture(t, rng, 8+rng.Intn(8), 256, 1+rng.Intn(40))
		for _, groups := range [][]int{{0}, {3}, {0, 3}, {1}} {
			want, err := Collect(NewHashAggregate(NewSource(schema, batches), groups, nil, aggSpecsForParity()))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 7} {
				src := &parSource{schema: schema, batches: batches, max: workers}
				in := MarkPipeline(src, workers)
				if _, ok := in.(*Pipeline); !ok {
					t.Fatal("bare ParallelSource must mark")
				}
				got, err := Collect(NewHashAggregate(in, groups, nil, aggSpecsForParity()))
				if err != nil {
					t.Fatal(err)
				}
				rowSetsEqual(t, fmt.Sprintf("grouped agg seed=%d groups=%v workers=%d", seed, groups, workers), want, got)
			}
		}
	}
}

// TestParallelGlobalAggParity covers the no-GROUP-BY shape, with a
// filter stage running on the workers.
func TestParallelGlobalAggParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema, batches := pipelineFixture(t, rng, 12, 256, 16)
	pred := &BinOp{Kind: OpLt, L: &ColRef{Idx: 1}, R: &Const{Val: types.NewInt(100)}}

	want, err := Collect(NewHashAggregate(NewFilter(NewSource(schema, batches), pred), nil, nil, aggSpecsForParity()))
	if err != nil {
		t.Fatal(err)
	}
	src := &parSource{schema: schema, batches: batches, max: 4}
	got, err := Collect(NewHashAggregate(MarkPipeline(NewFilter(src, pred), 4), nil, nil, aggSpecsForParity()))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || len(got) != 1 {
		t.Fatalf("global agg rows: serial %d parallel %d", len(want), len(got))
	}
	for c := range want[0] {
		w, g := want[0][c], got[0][c]
		if w.Null != g.Null {
			t.Fatalf("col %d nullness differs: %v vs %v", c, w, g)
		}
		if w.Typ == types.Float64 {
			if math.Abs(w.F-g.F) > 1e-6*(1+math.Abs(w.F)) {
				t.Fatalf("col %d: %v vs %v", c, w, g)
			}
			continue
		}
		if types.Compare(w, g) != 0 {
			t.Fatalf("col %d: %v vs %v", c, w, g)
		}
	}
}

// TestParallelJoinBuildParity: per-worker build stores stitched into
// one chained key table must join exactly like the serial build, for
// inner and LEFT joins, with NULL keys on both sides.
func TestParallelJoinBuildParity(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		rng := rand.New(rand.NewSource(seed))
		buildSchema, buildBatches := pipelineFixture(t, rng, 6, 200, 30)
		probeSchema, probeBatches := pipelineFixture(t, rng, 4, 150, 45)
		pred := &BinOp{Kind: OpGe, L: &ColRef{Idx: 1}, R: &Const{Val: types.NewInt(-400)}}

		for _, kind := range []JoinKind{InnerJoin, LeftJoin} {
			serial := NewHashJoin(
				NewSource(probeSchema, probeBatches),
				NewFilter(NewSource(buildSchema, buildBatches), pred),
				[]int{0}, []int{0}, kind)
			want, err := Collect(serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				bsrc := &parSource{schema: buildSchema, batches: buildBatches, max: workers}
				par := NewHashJoin(
					NewSource(probeSchema, probeBatches),
					MarkPipeline(NewFilter(bsrc, pred), workers),
					[]int{0}, []int{0}, kind)
				got, err := Collect(par)
				if err != nil {
					t.Fatal(err)
				}
				rowSetsEqual(t, fmt.Sprintf("join kind=%d seed=%d workers=%d", kind, seed, workers), want, got)
			}
		}
	}
}

// TestParallelSortParity: parallel run generation + merge must emit the
// same ordered key sequence and the same row multiset as the serial
// sort (row order among equal keys is unordered by SQL, so the multiset
// is the contract; the key sequence checks the merge).
func TestParallelSortParity(t *testing.T) {
	for seed := int64(20); seed < 23; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Enough rows to cross minParallelSortRows.
		schema, batches := pipelineFixture(t, rng, 24, 512, 9)
		keys := []SortKey{
			{E: &ColRef{Idx: 0}},
			{E: &ColRef{Idx: 1}, Desc: true},
		}
		want, err := Collect(NewSort(NewSource(schema, batches), keys))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			src := &parSource{schema: schema, batches: batches, max: workers}
			got, err := Collect(NewSort(MarkPipeline(src, workers), keys))
			if err != nil {
				t.Fatal(err)
			}
			rowSetsEqual(t, fmt.Sprintf("sort rows seed=%d workers=%d", seed, workers), want, got)
			for i := range got {
				if i == 0 {
					continue
				}
				c := types.Compare(got[i-1][0], got[i][0])
				if c > 0 {
					t.Fatalf("sort order violated at %d: %v > %v", i, got[i-1][0], got[i][0])
				}
				if c == 0 && types.Compare(got[i-1][1], got[i][1]) < 0 {
					t.Fatalf("desc tiekey violated at %d", i)
				}
			}
		}
	}
}

// TestPipelineWorkerStageAllocs pins the per-morsel contract: once a
// worker's stage chain and aggregation accumulator are warm, processing
// a batch allocates nothing — for an int, a string and a two-column key.
func TestPipelineWorkerStageAllocs(t *testing.T) {
	schema, batches := pipelineFixture(t, rand.New(rand.NewSource(3)), 1, 1024, 16)
	b := batches[0]
	pred := &BinOp{Kind: OpGe, L: &ColRef{Idx: 1}, R: &Const{Val: types.NewInt(-1000)}}

	for _, groups := range [][]int{{0}, {3}, {0, 3}} {
		wf := (&workerFilter{pred: pred}).newWorkerStage()
		h := NewHashAggregate(NewSource(schema, nil), groups, nil, []AggSpec{
			{Func: AggCountStar}, {Func: AggSum, Col: 1},
			{Func: AggMin, Col: 2}, {Func: AggMax, Col: 3},
		})
		acc := h.newAcc()
		process := func() {
			fb, err := wf.apply(b)
			if err != nil {
				t.Fatal(err)
			}
			acc.consume(fb)
		}
		process() // warm: table growth, gid buffer, selection buffer
		process()
		if allocs := testing.AllocsPerRun(50, process); allocs > 0 {
			t.Fatalf("groups %v: per-morsel path allocates %.1f/op, want 0", groups, allocs)
		}
	}
}
