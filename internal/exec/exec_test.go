package exec

import (
	"testing"

	"repro/internal/types"
)

func testSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "cat", Type: types.String},
		{Name: "price", Type: types.Float64},
	}, "id")
}

func testRows(n int) []types.Row {
	cats := []string{"a", "b", "c"}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewString(cats[i%3]),
			types.NewFloat(float64(i) / 2),
		}
	}
	return rows
}

func col(i int, name string) Expr     { return &ColRef{Idx: i, Name: name} }
func lit(v types.Value) Expr          { return &Const{Val: v} }
func intLit(v int64) Expr             { return lit(types.NewInt(v)) }
func cmp(k BinOpKind, l, r Expr) Expr { return &BinOp{Kind: k, L: l, R: r} }

func TestSourceBatching(t *testing.T) {
	src := NewSourceFromRows(testSchema(), testRows(10), 3)
	n, err := CollectCount(src)
	if err != nil || n != 10 {
		t.Fatalf("count = %d, %v", n, err)
	}
	src.Reset()
	batches := 0
	for {
		b, _ := src.Next()
		if b == nil {
			break
		}
		batches++
	}
	if batches != 4 { // 3+3+3+1
		t.Fatalf("batches = %d", batches)
	}
}

func TestFilterBasic(t *testing.T) {
	src := NewSourceFromRows(testSchema(), testRows(100), 16)
	f := NewFilter(src, cmp(OpLt, col(0, "id"), intLit(10)))
	rows, err := Collect(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("filtered %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestFilterCompound(t *testing.T) {
	src := NewSourceFromRows(testSchema(), testRows(100), 32)
	// id >= 10 AND id < 20 AND cat = 'b'
	pred := cmp(OpAnd,
		cmp(OpAnd, cmp(OpGe, col(0, ""), intLit(10)), cmp(OpLt, col(0, ""), intLit(20))),
		cmp(OpEq, col(1, ""), lit(types.NewString("b"))))
	rows, _ := Collect(NewFilter(src, pred))
	// ids 10..19 with i%3==1: 10,13,16,19.
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestProjection(t *testing.T) {
	src := NewSourceFromRows(testSchema(), testRows(5), 8)
	p := NewProjection(src, []Expr{
		col(0, "id"),
		cmp(OpMul, col(0, ""), intLit(2)),
		cmp(OpAdd, col(1, ""), lit(types.NewString("!"))),
	}, []string{"id", "double", "cat2"})
	rows, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().Cols[1].Name != "double" {
		t.Fatal("projection names")
	}
	if rows[2][1].I != 4 {
		t.Fatalf("computed column = %v", rows[2][1])
	}
	if rows[1][2].S != "b!" {
		t.Fatalf("string concat = %v", rows[1][2])
	}
}

func TestLimitOffset(t *testing.T) {
	src := NewSourceFromRows(testSchema(), testRows(100), 7)
	rows, _ := Collect(NewLimit(src, 5, 10))
	if len(rows) != 5 || rows[0][0].I != 10 || rows[4][0].I != 14 {
		t.Fatalf("limit/offset rows = %v", rows)
	}
	// Limit across batch boundaries.
	src2 := NewSourceFromRows(testSchema(), testRows(100), 3)
	rows, _ = Collect(NewLimit(src2, 10, 0))
	if len(rows) != 10 {
		t.Fatalf("limit = %d rows", len(rows))
	}
	// Negative limit = unlimited.
	src3 := NewSourceFromRows(testSchema(), testRows(20), 6)
	rows, _ = Collect(NewLimit(src3, -1, 15))
	if len(rows) != 5 {
		t.Fatalf("offset-only = %d rows", len(rows))
	}
}

func TestHashJoinInner(t *testing.T) {
	left := NewSourceFromRows(testSchema(), testRows(10), 4)
	rightSchema := types.MustSchema([]types.Column{
		{Name: "cat", Type: types.String},
		{Name: "label", Type: types.String},
	})
	right := NewSourceFromRows(rightSchema, []types.Row{
		{types.NewString("a"), types.NewString("Alpha")},
		{types.NewString("b"), types.NewString("Beta")},
	}, 8)
	j := NewHashJoin(left, right, []int{1}, []int{0}, InnerJoin)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	// cats a (4 rows: 0,3,6,9) and b (3 rows: 1,4,7) join; c rows drop.
	if len(rows) != 7 {
		t.Fatalf("join produced %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r) != 5 {
			t.Fatalf("join row width %d", len(r))
		}
		if r[1].S == "a" && r[4].S != "Alpha" {
			t.Fatalf("mis-join: %v", r)
		}
	}
}

func TestHashJoinLeft(t *testing.T) {
	left := NewSourceFromRows(testSchema(), testRows(6), 4)
	rightSchema := types.MustSchema([]types.Column{
		{Name: "cat", Type: types.String},
		{Name: "label", Type: types.String},
	})
	right := NewSourceFromRows(rightSchema, []types.Row{
		{types.NewString("a"), types.NewString("Alpha")},
	}, 8)
	j := NewHashJoin(left, right, []int{1}, []int{0}, LeftJoin)
	rows, _ := Collect(j)
	if len(rows) != 6 {
		t.Fatalf("left join rows = %d", len(rows))
	}
	nullPadded := 0
	for _, r := range rows {
		if r[4].Null {
			nullPadded++
		}
	}
	if nullPadded != 4 { // cats b,c unmatched (ids 1,2,4,5)
		t.Fatalf("null-padded = %d", nullPadded)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "k", Type: types.Int64}})
	left := NewSourceFromRows(s, []types.Row{{types.NewNull(types.Int64)}, {types.NewInt(1)}}, 4)
	right := NewSourceFromRows(s, []types.Row{{types.NewNull(types.Int64)}, {types.NewInt(1)}}, 4)
	rows, _ := Collect(NewHashJoin(left, right, []int{0}, []int{0}, InnerJoin))
	if len(rows) != 1 {
		t.Fatalf("null keys joined: %d rows", len(rows))
	}
}

func TestHashAggregateGrouped(t *testing.T) {
	src := NewSourceFromRows(testSchema(), testRows(99), 10)
	agg := NewHashAggregate(src,
		[]int{1}, []string{"cat"},
		[]AggSpec{
			{Func: AggCountStar},
			{Func: AggSum, Col: 0},
			{Func: AggMin, Col: 0},
			{Func: AggMax, Col: 0},
			{Func: AggAvg, Col: 2},
		})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	byCat := map[string]types.Row{}
	for _, r := range rows {
		byCat[r[0].S] = r
	}
	a := byCat["a"]
	if a[1].I != 33 {
		t.Fatalf("count(a) = %v", a[1])
	}
	// ids 0,3,...,96: sum = 33*48 = 1584.
	if a[2].I != 1584 {
		t.Fatalf("sum(a) = %v", a[2])
	}
	if a[3].I != 0 || a[4].I != 96 {
		t.Fatalf("min/max(a) = %v %v", a[3], a[4])
	}
	if a[5].F != 24.0 { // avg price of 0,1.5,...,48 = 24
		t.Fatalf("avg(a) = %v", a[5])
	}
}

func TestHashAggregateGlobalEmptyInput(t *testing.T) {
	src := NewSourceFromRows(testSchema(), nil, 8)
	agg := NewHashAggregate(src, nil, nil, []AggSpec{
		{Func: AggCountStar},
		{Func: AggSum, Col: 0},
	})
	rows, _ := Collect(agg)
	if len(rows) != 1 {
		t.Fatalf("global agg over empty input: %d rows", len(rows))
	}
	if rows[0][0].I != 0 {
		t.Fatal("COUNT(*) of empty should be 0")
	}
	if !rows[0][1].Null {
		t.Fatal("SUM of empty should be NULL")
	}
}

func TestAggregateIgnoresNulls(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "v", Type: types.Int64}})
	src := NewSourceFromRows(s, []types.Row{
		{types.NewInt(10)}, {types.NewNull(types.Int64)}, {types.NewInt(20)},
	}, 8)
	agg := NewHashAggregate(src, nil, nil, []AggSpec{
		{Func: AggCount, Col: 0},
		{Func: AggCountStar},
		{Func: AggSum, Col: 0},
		{Func: AggAvg, Col: 0},
	})
	rows, _ := Collect(agg)
	r := rows[0]
	if r[0].I != 2 {
		t.Fatalf("COUNT(v) = %v", r[0])
	}
	if r[1].I != 3 {
		t.Fatalf("COUNT(*) = %v", r[1])
	}
	if r[2].I != 30 {
		t.Fatalf("SUM = %v", r[2])
	}
	if r[3].F != 15 {
		t.Fatalf("AVG = %v", r[3])
	}
}

func TestSortAscDesc(t *testing.T) {
	src := NewSourceFromRows(testSchema(), testRows(50), 7)
	s := NewSort(src, []SortKey{{E: col(1, "cat")}, {E: col(0, "id"), Desc: true}})
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("sort lost rows: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		c := types.Compare(prev[1], cur[1])
		if c > 0 {
			t.Fatal("primary key out of order")
		}
		if c == 0 && prev[0].I < cur[0].I {
			t.Fatal("secondary desc key out of order")
		}
	}
}

func TestSortEmptyInput(t *testing.T) {
	src := NewSourceFromRows(testSchema(), nil, 4)
	rows, err := Collect(NewSort(src, []SortKey{{E: col(0, "")}}))
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty sort: %v %v", rows, err)
	}
}

func TestPipelineFilterAggSort(t *testing.T) {
	// SELECT cat, COUNT(*) FROM t WHERE id < 60 GROUP BY cat ORDER BY cat
	src := NewSourceFromRows(testSchema(), testRows(100), 13)
	f := NewFilter(src, cmp(OpLt, col(0, ""), intLit(60)))
	agg := NewHashAggregate(f, []int{1}, []string{"cat"},
		[]AggSpec{{Func: AggCountStar}})
	s := NewSort(agg, []SortKey{{E: col(0, "cat")}})
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	if rows[0][0].S != "a" || rows[0][1].I != 20 {
		t.Fatalf("first group = %v", rows[0])
	}
}

func TestResetReexecution(t *testing.T) {
	src := NewSourceFromRows(testSchema(), testRows(30), 8)
	f := NewFilter(src, cmp(OpGe, col(0, ""), intLit(15)))
	n1, _ := CollectCount(f)
	f.Reset()
	n2, _ := CollectCount(f)
	if n1 != 15 || n2 != 15 {
		t.Fatalf("reset re-execution: %d then %d", n1, n2)
	}
}

// Every comparison operator must select exactly the rows a row-by-row
// evaluation of the same comparison selects.
func TestFilterComparisonOps(t *testing.T) {
	rows := testRows(1000)
	for _, op := range []BinOpKind{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		want := 0
		for _, r := range rows {
			if c := types.Compare(r[0], types.NewInt(500)); (op == OpEq && c == 0) || (op == OpNe && c != 0) ||
				(op == OpLt && c < 0) || (op == OpLe && c <= 0) || (op == OpGt && c > 0) || (op == OpGe && c >= 0) {
				want++
			}
		}
		src := NewSourceFromRows(testSchema(), rows, 64)
		got, _ := CollectCount(NewFilter(src, cmp(op, col(0, ""), intLit(500))))
		if got != want {
			t.Fatalf("op %v: filter kept %d rows, want %d", op, got, want)
		}
	}
}

func TestVectorFilterChained(t *testing.T) {
	// Chained filters exercise the selection-vector path.
	rows := testRows(1000)
	src := NewSourceFromRows(testSchema(), rows, 128)
	k1 := NewFilter(src, cmp(OpGe, col(0, ""), intLit(100)))
	k2 := NewFilter(k1, cmp(OpLt, col(0, ""), intLit(200)))
	sum, n := sumCount(t, k2, 0)
	if n != 100 {
		t.Fatalf("n = %d", n)
	}
	if sum != (100+199)*100/2 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestExprNullSemantics(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "v", Type: types.Int64}})
	b := types.NewBatch(s, 1)
	b.AppendRow(types.Row{types.NewNull(types.Int64)})
	// NULL = NULL is NULL, not true.
	e := cmp(OpEq, col(0, ""), col(0, ""))
	if v := e.Eval(b, 0); !v.Null {
		t.Fatal("NULL = NULL must be NULL")
	}
	// NULL + 1 is NULL.
	e2 := cmp(OpAdd, col(0, ""), intLit(1))
	if v := e2.Eval(b, 0); !v.Null {
		t.Fatal("NULL + 1 must be NULL")
	}
	// FALSE AND NULL shortcut is FALSE.
	e3 := cmp(OpAnd, lit(types.NewBool(false)), cmp(OpEq, col(0, ""), intLit(1)))
	if v := e3.Eval(b, 0); v.Null || v.Bool() {
		t.Fatal("FALSE AND NULL must be FALSE")
	}
	// TRUE OR NULL shortcut is TRUE.
	e4 := cmp(OpOr, lit(types.NewBool(true)), cmp(OpEq, col(0, ""), intLit(1)))
	if v := e4.Eval(b, 0); v.Null || !v.Bool() {
		t.Fatal("TRUE OR NULL must be TRUE")
	}
	// IS NULL.
	e5 := &IsNull{E: col(0, "")}
	if v := e5.Eval(b, 0); !v.Bool() {
		t.Fatal("IS NULL")
	}
	e6 := &IsNull{E: col(0, ""), Negate: true}
	if v := e6.Eval(b, 0); v.Bool() {
		t.Fatal("IS NOT NULL")
	}
}

func TestExprArithmetic(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "v", Type: types.Int64}})
	b := types.NewBatch(s, 1)
	b.AppendRow(types.Row{types.NewInt(7)})
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{cmp(OpAdd, col(0, ""), intLit(3)), types.NewInt(10)},
		{cmp(OpSub, col(0, ""), intLit(3)), types.NewInt(4)},
		{cmp(OpMul, col(0, ""), intLit(3)), types.NewInt(21)},
		{cmp(OpDiv, col(0, ""), intLit(2)), types.NewInt(3)},
		{cmp(OpMod, col(0, ""), intLit(4)), types.NewInt(3)},
		{cmp(OpAdd, col(0, ""), lit(types.NewFloat(0.5))), types.NewFloat(7.5)},
	}
	for i, tc := range cases {
		got := tc.e.Eval(b, 0)
		if types.Compare(got, tc.want) != 0 {
			t.Errorf("case %d: %v = %v, want %v", i, tc.e, got, tc.want)
		}
	}
	// Division by zero yields NULL.
	if v := cmp(OpDiv, col(0, ""), intLit(0)).Eval(b, 0); !v.Null {
		t.Error("x/0 must be NULL")
	}
	if v := cmp(OpMod, col(0, ""), intLit(0)).Eval(b, 0); !v.Null {
		t.Error("x%0 must be NULL")
	}
}

func TestInList(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "v", Type: types.Int64}})
	b := types.NewBatch(s, 2)
	b.AppendRow(types.Row{types.NewInt(2)})
	b.AppendRow(types.Row{types.NewInt(5)})
	e := &InList{E: col(0, ""), Vals: []types.Value{types.NewInt(1), types.NewInt(2), types.NewInt(3)}}
	if !e.Eval(b, 0).Bool() {
		t.Fatal("2 IN (1,2,3)")
	}
	if e.Eval(b, 1).Bool() {
		t.Fatal("5 IN (1,2,3)")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true},
		{"hello", "x%", false},
		{"hello", "%z%", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "%%", true},
		{"special", "%c_a%", true},
	}
	for _, tc := range cases {
		if got := likeMatch(tc.s, tc.p); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v", tc.s, tc.p, got)
		}
	}
}

func TestNotExpr(t *testing.T) {
	s := types.MustSchema([]types.Column{{Name: "v", Type: types.Int64}})
	b := types.NewBatch(s, 1)
	b.AppendRow(types.Row{types.NewInt(1)})
	e := &Not{E: cmp(OpEq, col(0, ""), intLit(1))}
	if e.Eval(b, 0).Bool() {
		t.Fatal("NOT true")
	}
	e2 := &Not{E: cmp(OpEq, col(0, ""), lit(types.NewNull(types.Int64)))}
	if v := e2.Eval(b, 0); !v.Null {
		t.Fatal("NOT NULL must be NULL")
	}
}

func TestExprStrings(t *testing.T) {
	e := cmp(OpAnd, cmp(OpGt, col(0, "id"), intLit(5)), &IsNull{E: col(1, "cat")})
	if e.String() == "" {
		t.Fatal("expression should render")
	}
	if (&Like{E: col(1, "cat"), Pattern: "a%"}).String() != "cat LIKE 'a%'" {
		t.Fatal("Like string")
	}
}
