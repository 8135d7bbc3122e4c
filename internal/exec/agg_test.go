package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/types"
)

// aggTestSchema: g (group key), vi (int values), vf (float values).
func aggTestSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "g", Type: types.Int64},
		{Name: "vi", Type: types.Int64},
		{Name: "vf", Type: types.Float64},
	})
}

func runAgg(t *testing.T, src Operator, groups []int, aggs []AggSpec) []types.Row {
	t.Helper()
	rows, err := Collect(NewHashAggregate(src, groups, nil, aggs))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// refAgg is a naive aggregation over boxed rows: a map keyed by the
// rendered group key, each group keeping every non-NULL argument value
// in input order, folded only at the end.
func refAgg(rows []types.Row, groups []int, aggs []AggSpec, argTypes []types.Type) []types.Row {
	type group struct {
		key  types.Row
		n    int64
		vals [][]types.Value
	}
	byKey := map[string]*group{}
	var order []*group
	for _, r := range rows {
		var sb strings.Builder
		key := make(types.Row, len(groups))
		for i, c := range groups {
			key[i] = r[c]
			if r[c].Null {
				sb.WriteString("|NULL")
			} else {
				sb.WriteString("|" + r[c].String())
			}
		}
		g := byKey[sb.String()]
		if g == nil {
			g = &group{key: key, vals: make([][]types.Value, len(aggs))}
			byKey[sb.String()] = g
			order = append(order, g)
		}
		g.n++
		for ai, a := range aggs {
			if a.Func != AggCountStar && !r[a.Col].Null {
				g.vals[ai] = append(g.vals[ai], r[a.Col])
			}
		}
	}
	if len(groups) == 0 && len(order) == 0 {
		order = append(order, &group{vals: make([][]types.Value, len(aggs))})
	}
	var out []types.Row
	for _, g := range order {
		row := append(types.Row{}, g.key...)
		for ai, a := range aggs {
			vals := g.vals[ai]
			var sumI int64
			var sumF float64
			for _, v := range vals {
				sumI += v.I
				sumF += v.F
			}
			isF := argTypes[ai] == types.Float64
			var res types.Value
			switch {
			case a.Func == AggCountStar:
				res = types.NewInt(g.n)
			case a.Func == AggCount:
				res = types.NewInt(int64(len(vals)))
			case len(vals) == 0 && a.Func == AggAvg:
				res = types.NewNull(types.Float64)
			case len(vals) == 0:
				res = types.NewNull(argTypes[ai])
			case a.Func == AggSum && isF:
				res = types.NewFloat(sumF)
			case a.Func == AggSum:
				res = types.NewInt(sumI)
			case a.Func == AggAvg && isF:
				res = types.NewFloat(sumF / float64(len(vals)))
			case a.Func == AggAvg:
				res = types.NewFloat(float64(sumI) / float64(len(vals)))
			default: // MIN, MAX
				res = vals[0]
				for _, v := range vals[1:] {
					c := types.Compare(v, res)
					if (a.Func == AggMin && c < 0) || (a.Func == AggMax && c > 0) {
						res = v
					}
				}
			}
			row = append(row, res)
		}
		out = append(out, row)
	}
	return out
}

func sameValue(a, b types.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	return a.Typ == b.Typ && types.Compare(a, b) == 0
}

// TestTypedAggMatchesGeneric runs grouped and global aggregations over
// data with NULLs in the keys and the arguments and requires the
// operator's groups, first-seen group order and aggregate values to
// match a naive map-keyed reference — for an int key, a VARCHAR key, a
// two-column key and no key.
func TestTypedAggMatchesGeneric(t *testing.T) {
	s := types.MustSchema([]types.Column{
		{Name: "g", Type: types.Int64},
		{Name: "gs", Type: types.String},
		{Name: "vi", Type: types.Int64},
		{Name: "vf", Type: types.Float64},
	})
	rng := rand.New(rand.NewSource(42))
	rows := make([]types.Row, 10_000)
	for i := range rows {
		g := types.NewInt(int64(rng.Intn(37)))
		if rng.Intn(50) == 0 {
			g = types.NewNull(types.Int64)
		}
		gs := types.NewString(fmt.Sprintf("s%d", rng.Intn(23)))
		if rng.Intn(40) == 0 {
			gs = types.NewNull(types.String)
		}
		vi := types.NewInt(int64(rng.Intn(1000) - 500))
		if rng.Intn(20) == 0 {
			vi = types.NewNull(types.Int64)
		}
		vf := types.NewFloat(float64(rng.Intn(1000)) / 8)
		if rng.Intn(20) == 0 {
			vf = types.NewNull(types.Float64)
		}
		rows[i] = types.Row{g, gs, vi, vf}
	}
	aggs := []AggSpec{
		{Func: AggCountStar},
		{Func: AggCount, Col: 2},
		{Func: AggSum, Col: 2},
		{Func: AggMin, Col: 2},
		{Func: AggMax, Col: 2},
		{Func: AggAvg, Col: 2},
		{Func: AggSum, Col: 3},
		{Func: AggMin, Col: 3},
		{Func: AggMax, Col: 3},
		{Func: AggAvg, Col: 3},
		{Func: AggCount, Col: 1},
		{Func: AggMin, Col: 1},
		{Func: AggMax, Col: 1},
	}
	argTypes := make([]types.Type, len(aggs))
	for i, a := range aggs {
		argTypes[i] = s.Cols[a.Col].Type
	}
	for _, groups := range [][]int{{0}, {1}, {0, 1}, nil} {
		got := runAgg(t, NewSourceFromRows(s, rows, 512), groups, aggs)
		want := refAgg(rows, groups, aggs, argTypes)
		if len(got) != len(want) {
			t.Fatalf("groups %v: %d groups, reference %d", groups, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if !sameValue(got[i][c], want[i][c]) {
					t.Fatalf("groups %v, group %d, column %d: got %v, reference %v", groups, i, c, got[i], want[i])
				}
			}
		}
	}
}

// NULL-only group: every aggregate argument is NULL for one group.
func TestTypedAggNullOnlyGroup(t *testing.T) {
	s := aggTestSchema()
	rows := []types.Row{
		{types.NewInt(1), types.NewNull(types.Int64), types.NewNull(types.Float64)},
		{types.NewInt(1), types.NewNull(types.Int64), types.NewNull(types.Float64)},
		{types.NewInt(2), types.NewInt(7), types.NewFloat(1.5)},
	}
	out := runAgg(t, NewSourceFromRows(s, rows, 2), []int{0},
		[]AggSpec{
			{Func: AggCountStar},
			{Func: AggCount, Col: 1},
			{Func: AggSum, Col: 1},
			{Func: AggMin, Col: 1},
			{Func: AggAvg, Col: 1},
		})
	if len(out) != 2 {
		t.Fatalf("groups = %d, want 2", len(out))
	}
	g1 := out[0] // group key 1, first seen
	if g1[1].I != 2 {
		t.Errorf("COUNT(*) = %v, want 2", g1[1])
	}
	if g1[2].I != 0 {
		t.Errorf("COUNT(vi) = %v, want 0", g1[2])
	}
	if !g1[3].Null {
		t.Errorf("SUM over all-NULL group = %v, want NULL", g1[3])
	}
	if !g1[4].Null {
		t.Errorf("MIN over all-NULL group = %v, want NULL", g1[4])
	}
	if !g1[5].Null {
		t.Errorf("AVG over all-NULL group = %v, want NULL", g1[5])
	}
}

// Empty input: a global aggregate emits one all-empty row; a grouped
// aggregate emits no rows.
func TestTypedAggEmptyInput(t *testing.T) {
	s := aggTestSchema()
	aggs := []AggSpec{
		{Func: AggCountStar},
		{Func: AggSum, Col: 1},
		{Func: AggAvg, Col: 1},
	}
	global := runAgg(t, NewSourceFromRows(s, nil, 64), nil, aggs)
	if len(global) != 1 {
		t.Fatalf("global over empty input: %d rows, want 1", len(global))
	}
	if global[0][0].I != 0 || !global[0][1].Null || !global[0][2].Null {
		t.Errorf("global row = %v, want (0, NULL, NULL)", global[0])
	}
	grouped := runAgg(t, NewSourceFromRows(s, nil, 64), []int{0}, aggs)
	if len(grouped) != 0 {
		t.Fatalf("grouped over empty input: %d rows, want 0", len(grouped))
	}
}

// AVG over an int column must produce a float result.
func TestTypedAggAvgIntColumn(t *testing.T) {
	s := aggTestSchema()
	rows := []types.Row{
		{types.NewInt(1), types.NewInt(1), types.NewFloat(0)},
		{types.NewInt(1), types.NewInt(2), types.NewFloat(0)},
		{types.NewInt(1), types.NewInt(4), types.NewFloat(0)},
	}
	out := runAgg(t, NewSourceFromRows(s, rows, 2), nil,
		[]AggSpec{{Func: AggAvg, Col: 1}})
	v := out[0][0]
	if v.Typ != types.Float64 || v.Null {
		t.Fatalf("AVG = %v, want float", v)
	}
	if math.Abs(v.F-7.0/3.0) > 1e-12 {
		t.Errorf("AVG = %v, want %v", v.F, 7.0/3.0)
	}
}

// SUM accumulates in int64: summing to exactly MaxInt64 must be exact
// (no float rounding on the int path).
func TestTypedAggSumNearOverflow(t *testing.T) {
	s := aggTestSchema()
	rows := []types.Row{
		{types.NewInt(1), types.NewInt(math.MaxInt64 - 10), types.NewFloat(0)},
		{types.NewInt(1), types.NewInt(7), types.NewFloat(0)},
		{types.NewInt(1), types.NewInt(3), types.NewFloat(0)},
	}
	out := runAgg(t, NewSourceFromRows(s, rows, 2), nil,
		[]AggSpec{{Func: AggSum, Col: 1}})
	if out[0][0].I != math.MaxInt64 {
		t.Fatalf("SUM = %v, want %v", out[0][0].I, int64(math.MaxInt64))
	}
}

// Enough distinct keys to force the open-addressing table through
// several growth/rehash cycles, plus a NULL key group.
func TestTypedAggManyGroupsSpillsTable(t *testing.T) {
	s := aggTestSchema()
	const groups = 10_000
	rows := make([]types.Row, 0, groups*2+3)
	for rep := 0; rep < 2; rep++ {
		for g := 0; g < groups; g++ {
			rows = append(rows, types.Row{
				types.NewInt(int64(g * 7)), // sparse keys
				types.NewInt(int64(g)),
				types.NewFloat(0),
			})
		}
	}
	for i := 0; i < 3; i++ {
		rows = append(rows, types.Row{types.NewNull(types.Int64), types.NewInt(1000), types.NewFloat(0)})
	}
	out := runAgg(t, NewSourceFromRows(s, rows, 1024), []int{0},
		[]AggSpec{{Func: AggCountStar}, {Func: AggSum, Col: 1}})
	if len(out) != groups+1 {
		t.Fatalf("groups = %d, want %d", len(out), groups+1)
	}
	seenNull := false
	for _, r := range out {
		if r[0].Null {
			seenNull = true
			if r[1].I != 3 || r[2].I != 3000 {
				t.Errorf("NULL group = %v, want COUNT 3 SUM 3000", r)
			}
			continue
		}
		g := r[0].I / 7
		if r[1].I != 2 || r[2].I != 2*g {
			t.Errorf("group %d = %v, want COUNT 2 SUM %d", g, r, 2*g)
		}
	}
	if !seenNull {
		t.Error("NULL-key group missing from output")
	}
}

// Bool columns ride the int64 kernels (code-domain aggregation).
func TestTypedAggBoolColumn(t *testing.T) {
	s := types.MustSchema([]types.Column{
		{Name: "g", Type: types.Int64},
		{Name: "b", Type: types.Bool},
	})
	rows := []types.Row{
		{types.NewInt(1), types.NewBool(true)},
		{types.NewInt(1), types.NewBool(false)},
		{types.NewInt(1), types.NewBool(true)},
	}
	out := runAgg(t, NewSourceFromRows(s, rows, 2), []int{0},
		[]AggSpec{
			{Func: AggSum, Col: 1},
			{Func: AggMin, Col: 1},
			{Func: AggMax, Col: 1},
		})
	r := out[0]
	// The output schema types SUM(bool) as Bool, so the sum collapses
	// to truthiness on the way out.
	if !r[1].Bool() {
		t.Errorf("SUM(bool) = %v, want truthy", r[1])
	}
	if r[2].Bool() || !r[3].Bool() {
		t.Errorf("MIN/MAX(bool) = %v/%v, want false/true", r[2], r[3])
	}
}

// Aggregation over a pre-filtered (selection-vector) input must honor
// the selection.
func TestTypedAggOverSelection(t *testing.T) {
	s := aggTestSchema()
	rows := make([]types.Row, 100)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i % 4)),
			types.NewInt(int64(i)),
			types.NewFloat(float64(i)),
		}
	}
	src := NewSourceFromRows(s, rows, 32)
	filtered := NewFilter(src, cmp(OpLt, col(1, "vi"), intLit(50)))
	out := runAgg(t, filtered, []int{0},
		[]AggSpec{{Func: AggCountStar}, {Func: AggSum, Col: 1}})
	if len(out) != 4 {
		t.Fatalf("groups = %d, want 4", len(out))
	}
	totalCount, totalSum := int64(0), int64(0)
	for _, r := range out {
		totalCount += r[1].I
		totalSum += r[2].I
	}
	if totalCount != 50 || totalSum != 49*50/2 {
		t.Fatalf("count %d sum %d, want 50 %d", totalCount, totalSum, 49*50/2)
	}
}

// sumCount drains op through a global SUM(col), COUNT(col).
func sumCount(t *testing.T, op Operator, col int) (sum, n int64) {
	t.Helper()
	rows := runAgg(t, op, nil, []AggSpec{{Func: AggSum, Col: col}, {Func: AggCount, Col: col}})
	return rows[0][0].I, rows[0][1].I
}

// preSelectedBatch builds a batch of 10 physical int rows (id = 0..9,
// val = id*10) with a selection vector picking only the even rows.
func preSelectedBatch() *types.Batch {
	s := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "val", Type: types.Int64},
	}, "id")
	b := types.NewBatch(s, 10)
	for i := 0; i < 10; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 10))})
	}
	b.Sel = []int{0, 2, 4, 6, 8}
	return b
}

// Regression: a filter over an already-selected batch must emit a
// physical selection over the shared columns — never logical positions
// that would compose with the input selection a second time downstream.
func TestFilterPreSelectedBatch(t *testing.T) {
	b := preSelectedBatch()
	src := NewSource(b.Schema, []*types.Batch{b})
	// id >= 4 over the selected (even) rows: survivors are 4, 6, 8.
	pred := cmp(OpGe, col(0, "id"), intLit(4))
	rows, err := Collect(NewFilter(src, pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i, want := range []int64{4, 6, 8} {
		if rows[i][0].I != want || rows[i][1].I != want*10 {
			t.Errorf("row %d = %v, want id=%d val=%d", i, rows[i], want, want*10)
		}
	}
	// The same pipeline summed by the aggregate kernels must agree.
	src.Reset()
	if sum, n := sumCount(t, NewFilter(src, pred), 1); n != 3 || sum != 40+60+80 {
		t.Fatalf("SUM, COUNT = (%d, %d), want (180, 3)", sum, n)
	}
}

func TestFilterNulls(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "v", Type: types.Int64}})
	b := types.NewBatch(s, 6)
	for i := 0; i < 6; i++ {
		if i%2 == 1 {
			b.AppendRow(types.Row{types.NewNull(types.Int64)})
			continue
		}
		b.AppendRow(types.Row{types.NewInt(int64(i))})
	}
	src := NewSource(s, []*types.Batch{b})
	rows, err := Collect(NewFilter(src, cmp(OpGe, col(0, "v"), intLit(0))))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // NULLs never match a comparison
		t.Fatalf("got %d rows, want 3", len(rows))
	}
}

func TestGlobalSumSelAndNulls(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "v", Type: types.Int64}})
	b := types.NewBatch(s, 8)
	for i := 0; i < 8; i++ {
		if i == 2 {
			b.AppendRow(types.Row{types.NewNull(types.Int64)})
			continue
		}
		b.AppendRow(types.Row{types.NewInt(int64(i))})
	}
	b.Sel = []int{0, 2, 4, 6} // 0 + NULL + 4 + 6
	if sum, n := sumCount(t, NewSource(s, []*types.Batch{b}), 0); sum != 10 || n != 3 {
		t.Fatalf("SUM, COUNT = (%d, %d), want (10, 3)", sum, n)
	}
}

// A filter + aggregate query must be O(1) allocations: operator state
// and the one-row result, never a fresh selection or state per batch.
func TestKernelPipelineAllocsConstant(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "v", Type: types.Int64}})
	rows := make([]types.Row, 64*1024)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	src := NewSourceFromRows(s, rows, 1024) // 64 batches
	agg := NewHashAggregate(NewFilter(src, cmp(OpLt, col(0, "v"), intLit(32*1024))), nil, nil,
		[]AggSpec{{Func: AggSum, Col: 0}})
	query := func() {
		agg.Reset()
		if _, err := Collect(agg); err != nil {
			t.Fatal(err)
		}
	}
	query() // warm the filter's selection buffer
	// Measured 10: drain state and accumulator (4), the result batch
	// (4) and Collect's row (2).
	if allocs := testing.AllocsPerRun(5, query); allocs > 10 {
		t.Fatalf("filter + aggregate allocated %.0f times per query; want O(1), not O(batches)=64", allocs)
	}
}
