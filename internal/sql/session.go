package sql

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/types"
)

// Result is the outcome of one statement.
type Result struct {
	// Schema and Rows are set for SELECT.
	Schema *types.Schema
	Rows   []types.Row
	// Affected counts rows written by INSERT/UPDATE/DELETE.
	Affected int
}

// ErrTypeMismatch is wrapped by errors arising from a value whose type
// does not fit the target column (e.g. a string literal bound to a
// BIGINT column). Use errors.Is to detect it.
var ErrTypeMismatch = errors.New("sql: type mismatch")

// Session executes SQL against an engine, with optional explicit
// transactions (BEGIN/COMMIT/ROLLBACK); statements outside an explicit
// transaction auto-commit. Session materializes every SELECT; the
// public streaming/prepared front door is the top-level db package,
// which treats Session as an implementation detail.
type Session struct {
	engine *core.Engine
	tx     *core.Tx
}

// NewSession creates a session on the engine.
func NewSession(e *core.Engine) *Session { return &Session{engine: e} }

// Engine returns the underlying engine.
func (s *Session) Engine() *core.Engine { return s.engine }

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil }

// Exec parses and executes one statement. Statements with `?`
// placeholders are rejected here — prepare them and supply arguments.
// Exec is the context-free convenience surface; ExecCtx threads
// cancellation into scans and joins.
func (s *Session) Exec(query string) (*Result, error) {
	//oadb:allow-ctxscan Exec is the deliberate context-free compatibility surface; ExecCtx is the cancellable path
	return s.ExecCtx(context.Background(), query)
}

// ExecCtx parses and executes one statement like Exec, with ctx
// threaded through the execution pipeline: a cancelled ctx stops scans
// at a zone boundary and surfaces ctx.Err().
func (s *Session) ExecCtx(ctx context.Context, query string) (*Result, error) {
	q := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(query), ";"))
	switch strings.ToUpper(q) {
	case "BEGIN":
		if s.tx != nil {
			return nil, fmt.Errorf("sql: transaction already open")
		}
		s.tx = s.engine.Begin()
		return &Result{}, nil
	case "COMMIT":
		if s.tx == nil {
			return nil, fmt.Errorf("sql: no open transaction")
		}
		_, err := s.tx.Commit()
		s.tx = nil
		return &Result{}, err
	case "ROLLBACK":
		if s.tx == nil {
			return nil, fmt.Errorf("sql: no open transaction")
		}
		err := s.tx.Abort()
		s.tx = nil
		return &Result{}, err
	}
	st, nParams, err := ParseWithParams(query)
	if err != nil {
		return nil, err
	}
	if nParams > 0 {
		return nil, fmt.Errorf("sql: statement has %d parameter(s); prepare it and supply arguments", nParams)
	}
	return s.execStmt(ctx, st)
}

// execStmt runs a parsed statement inside the session transaction (or
// an auto-commit transaction).
func (s *Session) execStmt(ctx context.Context, st Stmt) (*Result, error) {
	if res, handled, err := execDDL(s.engine, st); handled {
		return res, err
	}
	tx := s.tx
	auto := false
	if tx == nil {
		tx = s.engine.Begin()
		auto = true
	}
	pc := &planCtx{engine: s.engine, binder: newParamBinder(0)}
	res, err := execStmtInTx(ctx, s.engine, tx, st, pc)
	if auto {
		if err != nil {
			tx.Abort()
			return nil, err
		}
		if _, cerr := tx.Commit(); cerr != nil {
			return nil, cerr
		}
		return res, nil
	}
	return res, err
}

// execDDL handles the statements that bypass transactions (DDL and
// MERGE). handled reports whether st was one of them.
func execDDL(e *core.Engine, st Stmt) (res *Result, handled bool, err error) {
	switch v := st.(type) {
	case *CreateTableStmt:
		schema, err := types.NewSchema(v.Cols, v.KeyCols...)
		if err != nil {
			return nil, true, err
		}
		if len(schema.Key) == 0 {
			return nil, true, fmt.Errorf("sql: CREATE TABLE requires a PRIMARY KEY")
		}
		if _, err := e.CreateTable(v.Name, schema); err != nil {
			return nil, true, err
		}
		return &Result{}, true, nil
	case *MergeStmt:
		if _, err := e.Merge(v.Table); err != nil {
			return nil, true, err
		}
		return &Result{}, true, nil
	}
	return nil, false, nil
}

// execStmtInTx runs one DML or SELECT statement in tx, resolving `?`
// placeholders through pc's binder (already loaded with arguments).
func execStmtInTx(ctx context.Context, e *core.Engine, tx *core.Tx, st Stmt, pc *planCtx) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch v := st.(type) {
	case *SelectStmt:
		cpc := pc.child()
		root, err := planSelect(cpc, v)
		if err != nil {
			return nil, err
		}
		if err := cpc.bind(tx, ctx); err != nil {
			return nil, err
		}
		rows, err := exec.Collect(root)
		cpc.close()
		if err != nil {
			return nil, err
		}
		return &Result{Schema: root.Schema(), Rows: rows}, nil
	case *ExplainStmt:
		// Compile the query exactly as execution would, but render the
		// operator tree instead of binding and running it.
		cpc := pc.child()
		root, err := planSelect(cpc, v.Query)
		if err != nil {
			return nil, err
		}
		rows := explainRows(root)
		cpc.close()
		return &Result{Schema: explainSchema, Rows: rows}, nil
	case *InsertStmt:
		return execInsert(ctx, e, tx, v, pc)
	case *UpdateStmt:
		return execUpdate(ctx, e, tx, v, pc)
	case *DeleteStmt:
		return execDelete(ctx, e, tx, v, pc)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

// evalConst evaluates a literal/parameter-only expression (INSERT
// values).
var constBatch = func() *types.Batch {
	sc := types.MustSchema([]types.Column{{Name: "one", Type: types.Int64}})
	b := types.NewBatch(sc, 1)
	b.AppendRow(types.Row{types.NewInt(1)})
	return b
}()

func evalConst(e AstExpr, pc *planCtx) (types.Value, error) {
	sc := &scope{cols: []scopeCol{{name: "one", typ: types.Int64}}, pc: pc}
	ce, err := compileExpr(e, sc)
	if err != nil {
		return types.Value{}, err
	}
	return ce.Eval(constBatch, 0), nil
}

func execInsert(ctx context.Context, e *core.Engine, tx *core.Tx, st *InsertStmt, pc *planCtx) (*Result, error) {
	tbl, err := e.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	// Map the optional column list to schema positions.
	var colIdx []int
	if len(st.Cols) > 0 {
		colIdx = make([]int, len(st.Cols))
		for i, cn := range st.Cols {
			ci := schema.ColIndex(cn)
			if ci < 0 {
				return nil, fmt.Errorf("sql: unknown column %q in INSERT", cn)
			}
			colIdx[i] = ci
		}
	}
	n := 0
	for _, astRow := range st.Rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := make(types.Row, schema.NumCols())
		for i, c := range schema.Cols {
			row[i] = types.NewNull(c.Type)
		}
		if colIdx == nil {
			if len(astRow) != schema.NumCols() {
				return nil, fmt.Errorf("sql: INSERT arity %d, table has %d columns", len(astRow), schema.NumCols())
			}
			for i, ae := range astRow {
				v, err := evalConst(ae, pc)
				if err != nil {
					return nil, err
				}
				if row[i], err = coerce(v, schema.Cols[i].Type, schema.Cols[i].Name); err != nil {
					return nil, err
				}
			}
		} else {
			if len(astRow) != len(colIdx) {
				return nil, fmt.Errorf("sql: INSERT arity mismatch")
			}
			for i, ae := range astRow {
				v, err := evalConst(ae, pc)
				if err != nil {
					return nil, err
				}
				ci := colIdx[i]
				if row[ci], err = coerce(v, schema.Cols[ci].Type, schema.Cols[ci].Name); err != nil {
					return nil, err
				}
			}
		}
		if err := tx.Insert(st.Table, row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// coerce adapts numeric value types to the column type; any other
// cross-type assignment is a typed error (wrapping ErrTypeMismatch)
// instead of a silently bogus value.
func coerce(v types.Value, t types.Type, col string) (types.Value, error) {
	if v.Null {
		return types.NewNull(t), nil
	}
	if v.Typ == t {
		return v, nil
	}
	switch {
	case t == types.Float64 && v.Typ == types.Int64:
		return types.NewFloat(float64(v.I)), nil
	case t == types.Int64 && v.Typ == types.Float64:
		return types.NewInt(int64(v.F)), nil
	}
	return types.Value{}, fmt.Errorf("%w: %s value cannot be assigned to %s column %q", ErrTypeMismatch, v.Typ, t, col)
}

// matchingKeys scans the table for rows matching WHERE and returns
// their primary keys and rows (the read half of UPDATE/DELETE).
func matchingKeys(ctx context.Context, e *core.Engine, tx *core.Tx, pc *planCtx, table string, where AstExpr) ([]types.Row, []types.Row, error) {
	tbl, err := e.Table(table)
	if err != nil {
		return nil, nil, err
	}
	schema := tbl.Schema()
	sel := &SelectStmt{
		Items: []SelectItem{{Star: true}},
		From:  &TableRef{Table: table, Alias: table},
		Where: where,
		Limit: -1,
	}
	cpc := pc.child()
	root, err := planSelect(cpc, sel)
	if err != nil {
		return nil, nil, err
	}
	if err := cpc.bind(tx, ctx); err != nil {
		return nil, nil, err
	}
	rows, err := exec.Collect(root)
	cpc.close()
	if err != nil {
		return nil, nil, err
	}
	keys := make([]types.Row, len(rows))
	for i, r := range rows {
		keys[i] = schema.KeyOf(r)
	}
	return keys, rows, nil
}

func execUpdate(ctx context.Context, e *core.Engine, tx *core.Tx, st *UpdateStmt, pc *planCtx) (*Result, error) {
	tbl, err := e.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	keys, rows, err := matchingKeys(ctx, e, tx, pc, st.Table, st.Where)
	if err != nil {
		return nil, err
	}
	// Compile SET expressions against the table scope.
	sc := &scope{pc: pc}
	alias := strings.ToLower(st.Table)
	for _, c := range schema.Cols {
		sc.cols = append(sc.cols, scopeCol{qual: alias, name: strings.ToLower(c.Name), typ: c.Type})
	}
	type setOp struct {
		ci int
		e  exec.Expr
	}
	sets := make([]setOp, len(st.Set))
	for i, sclause := range st.Set {
		ci := schema.ColIndex(sclause.Col)
		if ci < 0 {
			return nil, fmt.Errorf("sql: unknown column %q in SET", sclause.Col)
		}
		ce, err := compileExpr(sclause.Expr, sc)
		if err != nil {
			return nil, err
		}
		sets[i] = setOp{ci: ci, e: ce}
	}
	n := 0
	for i, old := range rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := types.NewBatch(schema, 1)
		b.AppendRow(old)
		newRow := old.Clone()
		for _, so := range sets {
			v, err := coerce(so.e.Eval(b, 0), schema.Cols[so.ci].Type, schema.Cols[so.ci].Name)
			if err != nil {
				return nil, err
			}
			newRow[so.ci] = v
		}
		if err := tx.Update(st.Table, keys[i], newRow); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

func execDelete(ctx context.Context, e *core.Engine, tx *core.Tx, st *DeleteStmt, pc *planCtx) (*Result, error) {
	keys, _, err := matchingKeys(ctx, e, tx, pc, st.Table, st.Where)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := tx.Delete(st.Table, k); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(keys)}, nil
}
