package sql

import "repro/internal/types"

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name    string
	Cols    []types.Column
	KeyCols []string
}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table string
	// Cols optionally names target columns (reordered/defaulted NULL).
	Cols []string
	Rows [][]AstExpr
}

// SelectStmt is SELECT.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef
	Joins    []JoinClause
	Where    AstExpr
	GroupBy  []AstExpr
	Having   AstExpr
	OrderBy  []OrderItem
	Limit    int // -1 = none
	Offset   int
}

// SelectItem is one select-list entry.
type SelectItem struct {
	Star  bool
	Expr  AstExpr
	Alias string
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// JoinClause is one JOIN ... ON.
type JoinClause struct {
	Left  bool // LEFT JOIN
	Table *TableRef
	On    AstExpr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr AstExpr
	Desc bool
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where AstExpr
}

// SetClause is col = expr.
type SetClause struct {
	Col  string
	Expr AstExpr
}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table string
	Where AstExpr
}

// MergeStmt is the engine extension MERGE TABLE t (delta-merge trigger).
type MergeStmt struct{ Table string }

// ExplainStmt is EXPLAIN <select>: it compiles the query and returns
// the operator tree (join order, pushed predicates, cardinality
// estimates) as rows instead of executing it.
type ExplainStmt struct{ Query *SelectStmt }

func (*CreateTableStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*MergeStmt) stmt()       {}
func (*ExplainStmt) stmt()     {}

// AstExpr is an unresolved scalar expression.
type AstExpr interface{ expr() }

// ColExpr references a column, optionally table-qualified.
type ColExpr struct {
	Table string
	Name  string
}

// LitExpr is a literal.
type LitExpr struct{ Val types.Value }

// ParamExpr is a `?` placeholder; Idx is its 0-based position in the
// statement (placeholders are purely positional).
type ParamExpr struct{ Idx int }

// BinExpr is a binary operation (arith, comparison, AND/OR).
type BinExpr struct {
	Op   string // "+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"
	L, R AstExpr
}

// NotExpr negates.
type NotExpr struct{ E AstExpr }

// IsNullExpr is IS [NOT] NULL.
type IsNullExpr struct {
	E      AstExpr
	Negate bool
}

// InExpr is IN (literals...).
type InExpr struct {
	E    AstExpr
	Vals []types.Value
}

// LikeExpr is LIKE 'pattern'.
type LikeExpr struct {
	E       AstExpr
	Pattern string
}

// AggExpr is an aggregate call in a select list.
type AggExpr struct {
	Func string // COUNT, SUM, MIN, MAX, AVG
	Star bool   // COUNT(*)
	Arg  AstExpr
}

func (*ColExpr) expr()    {}
func (*LitExpr) expr()    {}
func (*ParamExpr) expr()  {}
func (*BinExpr) expr()    {}
func (*NotExpr) expr()    {}
func (*IsNullExpr) expr() {}
func (*InExpr) expr()     {}
func (*LikeExpr) expr()   {}
func (*AggExpr) expr()    {}
