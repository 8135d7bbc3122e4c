package sql

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage/colstore"
	"repro/internal/types"
)

// scopeCol is one resolvable column in the current plan scope.
type scopeCol struct {
	qual string // table alias (lowercased)
	name string // column name (lowercased)
	typ  types.Type
}

// scope resolves column references to operator output positions. pc,
// when non-nil, supplies the plan context `?` placeholders bind
// through; a nil pc rejects placeholders.
type scope struct {
	cols []scopeCol
	pc   *planCtx
}

// planCtx carries the state one statement compilation accumulates: the
// parameter binder placeholders point into and the scan leaves later
// executions rebind (transaction snapshot, context, parameter-valued
// predicates).
type planCtx struct {
	engine *core.Engine
	binder *paramBinder
	scans  []*scanBinding
}

// paramBinder owns the binding slots for a statement's placeholders.
// exec.Param expressions hold pointers into slots, so the backing array
// must never be reallocated after compilation.
type paramBinder struct {
	slots []types.Value
}

func newParamBinder(n int) *paramBinder {
	return &paramBinder{slots: make([]types.Value, n)}
}

// bindArgs installs one execution's arguments.
func (pb *paramBinder) bindArgs(args []types.Value) error {
	if len(args) != len(pb.slots) {
		return fmt.Errorf("sql: statement has %d parameters, got %d arguments", len(pb.slots), len(args))
	}
	copy(pb.slots, args)
	return nil
}

// scanBinding pairs a scan leaf with the parameter-valued predicates
// that must be re-coerced into it on every bind.
type scanBinding struct {
	scan       *core.TableScan
	predParams []predParamSlot
}

// predParamSlot says: predicate predIdx of the scan takes parameter
// paramIdx, coerced to colType.
type predParamSlot struct {
	predIdx  int
	paramIdx int
	colType  types.Type
}

func (sc *scope) resolve(q, name string) (int, types.Type, error) {
	q, name = strings.ToLower(q), strings.ToLower(name)
	found := -1
	var typ types.Type
	for i, c := range sc.cols {
		if c.name != name {
			continue
		}
		if q != "" && c.qual != q {
			continue
		}
		if found >= 0 {
			return 0, 0, fmt.Errorf("sql: ambiguous column %q", name)
		}
		found = i
		typ = c.typ
	}
	if found < 0 {
		if q != "" {
			return 0, 0, fmt.Errorf("sql: unknown column %s.%s", q, name)
		}
		return 0, 0, fmt.Errorf("sql: unknown column %q", name)
	}
	return found, typ, nil
}

func (sc *scope) schema() *types.Schema {
	cols := make([]types.Column, len(sc.cols))
	for i, c := range sc.cols {
		cols[i] = types.Column{Name: c.name, Type: c.typ}
	}
	return &types.Schema{Cols: cols}
}

// renderResolved canonicalizes an AST expression for structural matching
// (GROUP BY / select-list correspondence), resolving column references
// through the scope so qualified and unqualified spellings of the same
// column compare equal.
func renderResolved(e AstExpr, sc *scope) string {
	switch v := e.(type) {
	case *ColExpr:
		if idx, _, err := sc.resolve(v.Table, v.Name); err == nil {
			return fmt.Sprintf("col:%d", idx)
		}
		return strings.ToLower(v.Table) + "." + strings.ToLower(v.Name)
	case *BinExpr:
		return "(" + renderResolved(v.L, sc) + v.Op + renderResolved(v.R, sc) + ")"
	case *NotExpr:
		return "not(" + renderResolved(v.E, sc) + ")"
	case *IsNullExpr:
		return fmt.Sprintf("isnull(%s,%v)", renderResolved(v.E, sc), v.Negate)
	case *InExpr:
		parts := make([]string, len(v.Vals))
		for i, val := range v.Vals {
			parts[i] = val.String()
		}
		return "in(" + renderResolved(v.E, sc) + ";" + strings.Join(parts, ",") + ")"
	case *LikeExpr:
		return "like(" + renderResolved(v.E, sc) + ";" + v.Pattern + ")"
	case *AggExpr:
		if v.Star {
			return "agg:count(*)"
		}
		return "agg:" + strings.ToLower(v.Func) + "(" + renderResolved(v.Arg, sc) + ")"
	default:
		return renderAst(e)
	}
}

// renderAst canonicalizes an AST expression without scope resolution
// (used for display names and aggregate de-duplication keys).
func renderAst(e AstExpr) string {
	switch v := e.(type) {
	case *ColExpr:
		return strings.ToLower(v.Table) + "." + strings.ToLower(v.Name)
	case *LitExpr:
		return "lit:" + v.Val.String()
	case *ParamExpr:
		return fmt.Sprintf("param:%d", v.Idx)
	case *BinExpr:
		return "(" + renderAst(v.L) + v.Op + renderAst(v.R) + ")"
	case *NotExpr:
		return "not(" + renderAst(v.E) + ")"
	case *IsNullExpr:
		return fmt.Sprintf("isnull(%s,%v)", renderAst(v.E), v.Negate)
	case *InExpr:
		parts := make([]string, len(v.Vals))
		for i, val := range v.Vals {
			parts[i] = val.String()
		}
		return "in(" + renderAst(v.E) + ";" + strings.Join(parts, ",") + ")"
	case *LikeExpr:
		return "like(" + renderAst(v.E) + ";" + v.Pattern + ")"
	case *AggExpr:
		if v.Star {
			return "agg:count(*)"
		}
		return "agg:" + strings.ToLower(v.Func) + "(" + renderAst(v.Arg) + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// compileExpr lowers an AST expression against a scope. Aggregates are
// rejected here; the planner replaces them before compilation.
func compileExpr(e AstExpr, sc *scope) (exec.Expr, error) {
	switch v := e.(type) {
	case *ColExpr:
		idx, _, err := sc.resolve(v.Table, v.Name)
		if err != nil {
			return nil, err
		}
		return &exec.ColRef{Idx: idx, Name: strings.ToLower(v.Name)}, nil
	case *LitExpr:
		return &exec.Const{Val: v.Val}, nil
	case *ParamExpr:
		if sc.pc == nil || sc.pc.binder == nil {
			return nil, fmt.Errorf("sql: `?` placeholder is not allowed here")
		}
		return &exec.Param{Idx: v.Idx, Val: &sc.pc.binder.slots[v.Idx]}, nil
	case *BinExpr:
		l, err := compileExpr(v.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(v.R, sc)
		if err != nil {
			return nil, err
		}
		kind, ok := binKinds[v.Op]
		if !ok {
			return nil, fmt.Errorf("sql: unsupported operator %q", v.Op)
		}
		return &exec.BinOp{Kind: kind, L: l, R: r}, nil
	case *NotExpr:
		inner, err := compileExpr(v.E, sc)
		if err != nil {
			return nil, err
		}
		return &exec.Not{E: inner}, nil
	case *IsNullExpr:
		inner, err := compileExpr(v.E, sc)
		if err != nil {
			return nil, err
		}
		return &exec.IsNull{E: inner, Negate: v.Negate}, nil
	case *InExpr:
		inner, err := compileExpr(v.E, sc)
		if err != nil {
			return nil, err
		}
		return &exec.InList{E: inner, Vals: v.Vals}, nil
	case *LikeExpr:
		inner, err := compileExpr(v.E, sc)
		if err != nil {
			return nil, err
		}
		return &exec.Like{E: inner, Pattern: v.Pattern}, nil
	case *AggExpr:
		return nil, fmt.Errorf("sql: aggregate %s not allowed here", v.Func)
	default:
		return nil, fmt.Errorf("sql: cannot compile %T", e)
	}
}

var binKinds = map[string]exec.BinOpKind{
	"+": exec.OpAdd, "-": exec.OpSub, "*": exec.OpMul, "/": exec.OpDiv, "%": exec.OpMod,
	"=": exec.OpEq, "<>": exec.OpNe, "<": exec.OpLt, "<=": exec.OpLe,
	">": exec.OpGt, ">=": exec.OpGe, "AND": exec.OpAnd, "OR": exec.OpOr,
}

var cmpToColstore = map[string]colstore.Op{
	"=": colstore.OpEq, "<>": colstore.OpNe, "<": colstore.OpLt,
	"<=": colstore.OpLe, ">": colstore.OpGt, ">=": colstore.OpGe,
}

// splitConjuncts flattens a WHERE tree over AND.
func splitConjuncts(e AstExpr, out []AstExpr) []AstExpr {
	if b, ok := e.(*BinExpr); ok && b.Op == "AND" {
		out = splitConjuncts(b.L, out)
		return splitConjuncts(b.R, out)
	}
	return append(out, e)
}

// tableMeta describes one planned table scan.
type tableMeta struct {
	ref    *TableRef
	schema *types.Schema
}

// pushdown extracts `col op literal` and `col op ?` conjuncts for a
// specific table. Returns the storage predicates (parameter-valued ones
// carry an empty Value filled at bind time), the predicate/parameter
// slots, and the remaining conjuncts.
func pushdown(conjuncts []AstExpr, tm tableMeta, singleTable bool) ([]colstore.Predicate, []predParamSlot, []AstExpr) {
	var preds []colstore.Predicate
	var pps []predParamSlot
	var rest []AstExpr
	alias := strings.ToLower(tm.ref.Alias)
	for _, c := range conjuncts {
		// `col IS [NOT] NULL` pushes down as a null-test predicate:
		// zone null-counts let the scan prune zones (and whole
		// segments) that cannot contain a matching row.
		if n, ok := c.(*IsNullExpr); ok {
			colE, ok := n.E.(*ColExpr)
			if ok &&
				((colE.Table == "" && singleTable) ||
					(colE.Table != "" && strings.ToLower(colE.Table) == alias)) {
				if ci := tm.schema.ColIndex(colE.Name); ci >= 0 {
					op := colstore.OpIsNull
					if n.Negate {
						op = colstore.OpIsNotNull
					}
					preds = append(preds, colstore.Predicate{Col: ci, Op: op})
					continue
				}
			}
			rest = append(rest, c)
			continue
		}
		b, ok := c.(*BinExpr)
		if !ok {
			rest = append(rest, c)
			continue
		}
		op, ok := cmpToColstore[b.Op]
		if !ok {
			rest = append(rest, c)
			continue
		}
		colE, lit, param, flipped := extractColLit(b)
		if colE == nil {
			rest = append(rest, c)
			continue
		}
		if colE.Table != "" && strings.ToLower(colE.Table) != alias {
			rest = append(rest, c)
			continue
		}
		if colE.Table == "" && !singleTable {
			rest = append(rest, c) // unqualified in a join: don't guess
			continue
		}
		ci := tm.schema.ColIndex(colE.Name)
		if ci < 0 {
			rest = append(rest, c)
			continue
		}
		if flipped {
			op = flipOp(op)
		}
		colT := tm.schema.Cols[ci].Type
		if param != nil {
			// Parameter-valued predicate: the value is installed (and
			// type-checked against colT) on every bind.
			preds = append(preds, colstore.Predicate{Col: ci, Op: op})
			pps = append(pps, predParamSlot{predIdx: len(preds) - 1, paramIdx: param.Idx, colType: colT})
			continue
		}
		// Coerce int literals for float columns and vice versa where safe.
		val := lit
		if colT == types.Float64 && val.Typ == types.Int64 {
			val = types.NewFloat(float64(val.I))
		}
		if val.Typ != colT && !(val.IsNumeric() && colT == types.Int64 && val.Typ == types.Float64) {
			if val.Typ != colT {
				rest = append(rest, c)
				continue
			}
		}
		preds = append(preds, colstore.Predicate{Col: ci, Op: op, Val: val})
	}
	return preds, pps, rest
}

// extractColLit matches col-op-lit, lit-op-col, col-op-?, or ?-op-col.
// Exactly one of the value return and the param return is set.
func extractColLit(b *BinExpr) (*ColExpr, types.Value, *ParamExpr, bool) {
	if c, ok := b.L.(*ColExpr); ok {
		if l, ok := b.R.(*LitExpr); ok && !l.Val.Null {
			return c, l.Val, nil, false
		}
		if p, ok := b.R.(*ParamExpr); ok {
			return c, types.Value{}, p, false
		}
	}
	if c, ok := b.R.(*ColExpr); ok {
		if l, ok := b.L.(*LitExpr); ok && !l.Val.Null {
			return c, l.Val, nil, true
		}
		if p, ok := b.L.(*ParamExpr); ok {
			return c, types.Value{}, p, true
		}
	}
	return nil, types.Value{}, nil, false
}

func flipOp(op colstore.Op) colstore.Op {
	switch op {
	case colstore.OpLt:
		return colstore.OpGt
	case colstore.OpLe:
		return colstore.OpGe
	case colstore.OpGt:
		return colstore.OpLt
	case colstore.OpGe:
		return colstore.OpLe
	default:
		return op
	}
}

// planSelect compiles a SELECT into an operator tree with unbound
// TableScan leaves registered in pc (the caller binds them to a
// transaction before execution). Multi-table queries route through the
// join planner (joinplan.go), which reorders inner joins by estimated
// cardinality and prunes scan projections.
func planSelect(pc *planCtx, st *SelectStmt) (exec.Operator, error) {
	if st.From == nil {
		return planSelectNoFrom(pc, st)
	}
	if len(st.Joins) > 0 {
		return planJoinSelect(pc, st)
	}
	e := pc.engine
	base, err := e.Table(st.From.Table)
	if err != nil {
		return nil, err
	}
	tm := tableMeta{ref: st.From, schema: base.Schema()}

	var conjuncts []AstExpr
	if st.Where != nil {
		conjuncts = splitConjuncts(st.Where, nil)
	}
	preds, pps, rest := pushdown(conjuncts, tm, true)
	tblOp, err := core.NewTableScan(e, tm.ref.Table, nil, preds)
	if err != nil {
		return nil, err
	}
	pc.scans = append(pc.scans, &scanBinding{scan: tblOp, predParams: pps})
	sc := scope{pc: pc}
	alias := strings.ToLower(tm.ref.Alias)
	for _, c := range tm.schema.Cols {
		sc.cols = append(sc.cols, scopeCol{qual: alias, name: strings.ToLower(c.Name), typ: c.Type})
	}
	items, err := expandStars(st.Items, &sc)
	if err != nil {
		return nil, err
	}
	return planSelectTail(tblOp, &sc, st, items, rest)
}

// planSelectTail lowers everything above the scan/join tree: residual
// WHERE conjuncts, aggregation, DISTINCT, ORDER BY/LIMIT, and the final
// projection. items is the star-expanded select list; sc is the scope
// of op's output columns.
func planSelectTail(op exec.Operator, sc *scope, st *SelectStmt, items []SelectItem, conjuncts []AstExpr) (exec.Operator, error) {
	if len(conjuncts) > 0 {
		pred := conjuncts[0]
		for _, c := range conjuncts[1:] {
			pred = &BinExpr{Op: "AND", L: pred, R: c}
		}
		fe, err := compileExpr(pred, sc)
		if err != nil {
			return nil, err
		}
		op = exec.NewFilter(op, fe)
	}

	// Aggregation?
	aggs := collectAggs(items, st.Having, st.OrderBy)
	if len(aggs) > 0 || len(st.GroupBy) > 0 {
		return planAggregate(op, sc, st, items, aggs)
	}

	// Plain query. DISTINCT changes operator placement: the projection
	// and Distinct run first, and ORDER BY/LIMIT apply ABOVE them — a
	// limit below the de-duplication would truncate pre-dedup rows.
	if st.Distinct {
		exprs, names, err := compileItems(items, sc)
		if err != nil {
			return nil, err
		}
		var out exec.Operator = exec.NewProjection(op, exprs, names)
		out = exec.NewDistinct(out)
		return planDistinctOrderLimit(out, st, items, sc)
	}
	// Without DISTINCT, sort → limit run below the projection (ORDER BY
	// may reference non-projected columns), fused into TopN when a
	// LIMIT is present.
	if len(st.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(st.OrderBy))
		for i, oi := range st.OrderBy {
			ke, err := compileOrderKey(oi.Expr, items, sc)
			if err != nil {
				return nil, err
			}
			keys[i] = exec.SortKey{E: ke, Desc: oi.Desc}
		}
		// Sort is a pipeline breaker: mark the chain below it so run
		// generation rides the morsel workers.
		op = planOrderLimit(exec.MarkPipeline(op, sc.pc.engine.Parallelism()), keys, st)
	} else if st.Limit >= 0 || st.Offset > 0 {
		op = exec.NewLimit(op, st.Limit, st.Offset)
	}
	exprs, names, err := compileItems(items, sc)
	if err != nil {
		return nil, err
	}
	return exec.NewProjection(op, exprs, names), nil
}

// compileItems lowers the select list against a scope.
func compileItems(items []SelectItem, sc *scope) ([]exec.Expr, []string, error) {
	exprs := make([]exec.Expr, len(items))
	names := make([]string, len(items))
	for i, it := range items {
		ce, err := compileExpr(it.Expr, sc)
		if err != nil {
			return nil, nil, err
		}
		exprs[i] = ce
		names[i] = itemName(it)
	}
	return exprs, names, nil
}

// planDistinctOrderLimit applies ORDER BY/LIMIT above a Distinct. The
// sort keys must be select-list outputs (standard SQL: for SELECT
// DISTINCT, ORDER BY expressions must appear in the select list), so
// each resolves to a column of the de-duplicated projection.
func planDistinctOrderLimit(out exec.Operator, st *SelectStmt, items []SelectItem, sc *scope) (exec.Operator, error) {
	if len(st.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(st.OrderBy))
		for i, oi := range st.OrderBy {
			idx, err := orderItemIndex(oi.Expr, items, sc)
			if err != nil {
				return nil, err
			}
			keys[i] = exec.SortKey{E: &exec.ColRef{Idx: idx, Name: itemName(items[idx])}, Desc: oi.Desc}
		}
		return planOrderLimit(out, keys, st), nil
	}
	if st.Limit >= 0 || st.Offset > 0 {
		out = exec.NewLimit(out, st.Limit, st.Offset)
	}
	return out, nil
}

// orderItemIndex resolves an ORDER BY expression to a select-list
// position, by alias or structurally.
func orderItemIndex(e AstExpr, items []SelectItem, sc *scope) (int, error) {
	if c, ok := e.(*ColExpr); ok && c.Table == "" {
		for idx, it := range items {
			if strings.EqualFold(it.Alias, c.Name) {
				return idx, nil
			}
		}
	}
	key := renderResolved(e, sc)
	for idx, it := range items {
		if renderResolved(it.Expr, sc) == key {
			return idx, nil
		}
	}
	return 0, fmt.Errorf("sql: for SELECT DISTINCT, ORDER BY expressions must appear in the select list")
}

// planOrderLimit lowers ORDER BY (+ LIMIT/OFFSET) over op. When a LIMIT
// is present the planner selects the Top-K path: a bounded exec.TopN
// over limit+offset rows instead of materializing and fully sorting the
// whole input, with a Limit on top only to skip the offset. Callers are
// responsible for placement (for SELECT DISTINCT this runs above the
// Distinct operator, so the limit counts de-duplicated rows).
func planOrderLimit(op exec.Operator, keys []exec.SortKey, st *SelectStmt) exec.Operator {
	if st.Limit >= 0 {
		op = exec.NewTopN(op, keys, st.Limit+st.Offset)
		if st.Offset > 0 {
			op = exec.NewLimit(op, st.Limit, st.Offset)
		}
		return op
	}
	op = exec.NewSort(op, keys)
	if st.Offset > 0 {
		op = exec.NewLimit(op, st.Limit, st.Offset)
	}
	return op
}

// compileOrderKey resolves an ORDER BY expression, allowing references
// to select-list aliases.
func compileOrderKey(e AstExpr, items []SelectItem, sc *scope) (exec.Expr, error) {
	if c, ok := e.(*ColExpr); ok && c.Table == "" {
		if _, _, err := sc.resolve("", c.Name); err != nil {
			for _, it := range items {
				if strings.EqualFold(it.Alias, c.Name) {
					return compileExpr(it.Expr, sc)
				}
			}
		}
	}
	return compileExpr(e, sc)
}

// planSelectNoFrom handles SELECT <literals>.
func planSelectNoFrom(pc *planCtx, st *SelectStmt) (exec.Operator, error) {
	empty := &types.Schema{}
	b := types.NewBatch(empty, 1)
	// One synthetic row so literal projections emit one row.
	src := exec.NewSource(empty, []*types.Batch{b})
	_ = src
	// Build the projection against a one-row dummy input.
	dummySchema := types.MustSchema([]types.Column{{Name: "one", Type: types.Int64}})
	db := types.NewBatch(dummySchema, 1)
	db.AppendRow(types.Row{types.NewInt(1)})
	in := exec.NewSource(dummySchema, []*types.Batch{db})
	sc := scope{cols: []scopeCol{{qual: "", name: "one", typ: types.Int64}}, pc: pc}
	exprs := make([]exec.Expr, len(st.Items))
	names := make([]string, len(st.Items))
	for i, it := range st.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: SELECT * requires FROM")
		}
		if containsParam(it.Expr) {
			return nil, fmt.Errorf("sql: `?` in the select list has no inferable type at plan time; bind it in a comparison or INSERT/SET instead")
		}
		ce, err := compileExpr(it.Expr, &sc)
		if err != nil {
			return nil, err
		}
		exprs[i] = ce
		names[i] = itemName(it)
	}
	return exec.NewProjection(in, exprs, names), nil
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return strings.ToLower(it.Alias)
	}
	if c, ok := it.Expr.(*ColExpr); ok {
		return strings.ToLower(c.Name)
	}
	return ""
}

func expandStars(items []SelectItem, sc *scope) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, c := range sc.cols {
			out = append(out, SelectItem{
				Expr:  &ColExpr{Table: c.qual, Name: c.name},
				Alias: c.name,
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sql: empty select list")
	}
	for _, it := range out {
		// Select-list output types are fixed at plan time, and an
		// unbound `?` has none — a later float binding would silently
		// truncate through the typed projection vectors.
		if containsParam(it.Expr) {
			return nil, fmt.Errorf("sql: `?` in the select list has no inferable type at plan time; bind it in a comparison or INSERT/SET instead")
		}
	}
	return out, nil
}

// containsParam reports whether e contains a `?` placeholder anywhere.
func containsParam(e AstExpr) bool {
	switch v := e.(type) {
	case *ParamExpr:
		return true
	case *BinExpr:
		return containsParam(v.L) || containsParam(v.R)
	case *NotExpr:
		return containsParam(v.E)
	case *IsNullExpr:
		return containsParam(v.E)
	case *InExpr:
		return containsParam(v.E)
	case *LikeExpr:
		return containsParam(v.E)
	case *AggExpr:
		return !v.Star && containsParam(v.Arg)
	}
	return false
}

// collectAggs gathers every distinct aggregate expression appearing in
// the select list, HAVING, and ORDER BY.
func collectAggs(items []SelectItem, having AstExpr, order []OrderItem) []*AggExpr {
	var out []*AggExpr
	seen := map[string]bool{}
	var walk func(e AstExpr)
	walk = func(e AstExpr) {
		switch v := e.(type) {
		case *AggExpr:
			k := renderAst(v)
			if !seen[k] {
				seen[k] = true
				out = append(out, v)
			}
		case *BinExpr:
			walk(v.L)
			walk(v.R)
		case *NotExpr:
			walk(v.E)
		case *IsNullExpr:
			walk(v.E)
		case *InExpr:
			walk(v.E)
		case *LikeExpr:
			walk(v.E)
		}
	}
	for _, it := range items {
		if it.Expr != nil {
			walk(it.Expr)
		}
	}
	if having != nil {
		walk(having)
	}
	for _, oi := range order {
		walk(oi.Expr)
	}
	return out
}

// planAggregate lowers GROUP BY + aggregates, then HAVING/ORDER/LIMIT
// and the final projection against the post-aggregation scope.
func planAggregate(op exec.Operator, sc *scope, st *SelectStmt, items []SelectItem, aggs []*AggExpr) (exec.Operator, error) {
	// The aggregate reads column references only: keys first, then
	// aggregate arguments (COUNT(*) has none).
	cols := make([]exec.Expr, 0, len(st.GroupBy)+len(aggs))
	for _, g := range st.GroupBy {
		// Group-key and aggregate output types are fixed at plan time;
		// an unbound `?` has none (see expandStars).
		if containsParam(g) {
			return nil, fmt.Errorf("sql: `?` in GROUP BY has no inferable type at plan time")
		}
		ge, err := compileExpr(g, sc)
		if err != nil {
			return nil, err
		}
		cols = append(cols, ge)
	}
	specs := make([]exec.AggSpec, len(aggs))
	for i, a := range aggs {
		if !a.Star && containsParam(a.Arg) {
			return nil, fmt.Errorf("sql: `?` in an aggregate argument has no inferable type at plan time")
		}
		spec := exec.AggSpec{Name: renderAst(a)}
		switch a.Func {
		case "COUNT":
			if a.Star {
				spec.Func = exec.AggCountStar
			} else {
				spec.Func = exec.AggCount
			}
		case "SUM":
			spec.Func = exec.AggSum
		case "MIN":
			spec.Func = exec.AggMin
		case "MAX":
			spec.Func = exec.AggMax
		case "AVG":
			spec.Func = exec.AggAvg
		}
		if !a.Star {
			ae, err := compileExpr(a.Arg, sc)
			if err != nil {
				return nil, err
			}
			if (spec.Func == exec.AggSum || spec.Func == exec.AggAvg) && ae.Type(op.Schema()) == types.String {
				return nil, fmt.Errorf("sql: %s requires a numeric argument", a.Func)
			}
			spec.Col = len(cols)
			cols = append(cols, ae)
		}
		specs[i] = spec
	}
	// Bare column references are read in place. If anything is computed,
	// every key and argument goes into one Projection below the
	// aggregate, which the morsel workers run.
	at := make([]int, len(cols))
	for i, e := range cols {
		cr, ok := e.(*exec.ColRef)
		if !ok {
			op = exec.NewProjection(op, cols, nil)
			for i := range at {
				at[i] = i
			}
			break
		}
		at[i] = cr.Idx
	}
	for i := range specs {
		if specs[i].Func != exec.AggCountStar {
			specs[i].Col = at[specs[i].Col]
		}
	}
	groupNames := make([]string, len(st.GroupBy))
	for i := range groupNames {
		groupNames[i] = cols[i].String()
	}
	// Aggregation is a pipeline breaker: mark the chain below it so the
	// morsel workers run filter → projection → partial aggregation
	// thread-locally, merged at this operator.
	agg := exec.NewHashAggregate(exec.MarkPipeline(op, sc.pc.engine.Parallelism()), at[:len(st.GroupBy)], groupNames, specs)

	// Post-aggregation scope: group keys (matched structurally by their
	// scope-resolved rendering) then aggregates.
	post := map[string]int{}
	for i, g := range st.GroupBy {
		post[renderResolved(g, sc)] = i
	}
	for i, a := range aggs {
		post[renderResolved(a, sc)] = len(st.GroupBy) + i
	}
	aggSchema := agg.Schema()
	rewrite := func(e AstExpr) (exec.Expr, error) {
		return rewritePostAgg(e, post, aggSchema, sc)
	}

	var out exec.Operator = agg
	if st.Having != nil {
		he, err := rewrite(st.Having)
		if err != nil {
			return nil, err
		}
		out = exec.NewFilter(out, he)
	}
	// As in planSelect, DISTINCT moves ORDER BY/LIMIT above the
	// projection + Distinct so the limit counts de-duplicated rows.
	if len(st.OrderBy) > 0 && !st.Distinct {
		keys := make([]exec.SortKey, len(st.OrderBy))
		for i, oi := range st.OrderBy {
			// ORDER BY may reference select aliases.
			expr := oi.Expr
			if c, ok := expr.(*ColExpr); ok && c.Table == "" {
				for _, it := range items {
					if strings.EqualFold(it.Alias, c.Name) {
						expr = it.Expr
						break
					}
				}
			}
			ke, err := rewrite(expr)
			if err != nil {
				return nil, err
			}
			keys[i] = exec.SortKey{E: ke, Desc: oi.Desc}
		}
		out = planOrderLimit(out, keys, st)
	} else if !st.Distinct && (st.Limit >= 0 || st.Offset > 0) {
		out = exec.NewLimit(out, st.Limit, st.Offset)
	}
	exprs := make([]exec.Expr, len(items))
	names := make([]string, len(items))
	for i, it := range items {
		ce, err := rewrite(it.Expr)
		if err != nil {
			return nil, err
		}
		exprs[i] = ce
		names[i] = itemName(it)
		if names[i] == "" {
			names[i] = renderAst(it.Expr)
		}
	}
	var final exec.Operator = exec.NewProjection(out, exprs, names)
	if st.Distinct {
		final = exec.NewDistinct(final)
		return planDistinctOrderLimit(final, st, items, sc)
	}
	return final, nil
}

// rewritePostAgg compiles an expression against the aggregate output:
// sub-expressions matching a group key or aggregate become column refs.
func rewritePostAgg(e AstExpr, post map[string]int, aggSchema *types.Schema, sc *scope) (exec.Expr, error) {
	if idx, ok := post[renderResolved(e, sc)]; ok {
		return &exec.ColRef{Idx: idx, Name: aggSchema.Cols[idx].Name}, nil
	}
	switch v := e.(type) {
	case *LitExpr:
		return &exec.Const{Val: v.Val}, nil
	case *ParamExpr:
		if sc.pc == nil || sc.pc.binder == nil {
			return nil, fmt.Errorf("sql: `?` placeholder is not allowed here")
		}
		return &exec.Param{Idx: v.Idx, Val: &sc.pc.binder.slots[v.Idx]}, nil
	case *BinExpr:
		l, err := rewritePostAgg(v.L, post, aggSchema, sc)
		if err != nil {
			return nil, err
		}
		r, err := rewritePostAgg(v.R, post, aggSchema, sc)
		if err != nil {
			return nil, err
		}
		return &exec.BinOp{Kind: binKinds[v.Op], L: l, R: r}, nil
	case *NotExpr:
		inner, err := rewritePostAgg(v.E, post, aggSchema, sc)
		if err != nil {
			return nil, err
		}
		return &exec.Not{E: inner}, nil
	case *IsNullExpr:
		inner, err := rewritePostAgg(v.E, post, aggSchema, sc)
		if err != nil {
			return nil, err
		}
		return &exec.IsNull{E: inner, Negate: v.Negate}, nil
	case *AggExpr:
		return nil, fmt.Errorf("sql: aggregate not in GROUP BY output: %s", renderAst(e))
	case *ColExpr:
		return nil, fmt.Errorf("sql: column %q must appear in GROUP BY or an aggregate", v.Name)
	default:
		return nil, fmt.Errorf("sql: cannot rewrite %T after aggregation", e)
	}
}
