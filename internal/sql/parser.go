package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// maxExprDepth caps expression nesting (parentheses, NOT chains, unary
// minus chains), so hostile SQL fails with an error instead of
// overflowing the goroutine stack.
const maxExprDepth = 1000

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks    []Token
	pos     int
	nParams int
	// depth is the current expression nesting, bounded by maxExprDepth.
	depth int
}

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(input string) (Stmt, error) {
	st, _, err := ParseWithParams(input)
	return st, err
}

// ParseWithParams parses one statement and additionally reports how
// many `?` placeholders it contains (placeholders are positional:
// the i-th `?` is parameter i).
func ParseWithParams(input string) (Stmt, int, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, 0, err
	}
	p := &Parser{toks: toks}
	st, err := p.parseStmt()
	if err != nil {
		return nil, 0, err
	}
	p.accept(TokSymbol, ";")
	if !p.at(TokEOF, "") {
		return nil, 0, fmt.Errorf("sql: trailing input at %q", p.cur().Text)
	}
	return st, p.nParams, nil
}

func (p *Parser) cur() Token { return p.toks[p.pos] }

func (p *Parser) at(k TokKind, text string) bool {
	t := p.cur()
	return t.Kind == k && (text == "" || t.Text == text)
}

func (p *Parser) accept(k TokKind, text string) bool {
	if p.at(k, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind, text string) (Token, error) {
	t := p.cur()
	if !p.at(k, text) {
		return t, fmt.Errorf("sql: expected %q, got %q", text, t.Text)
	}
	p.pos++
	return t, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch {
	case p.at(TokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(TokKeyword, "EXPLAIN"):
		p.pos++
		if !p.at(TokKeyword, "SELECT") {
			return nil, fmt.Errorf("sql: EXPLAIN supports only SELECT, got %q", p.cur().Text)
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: sel.(*SelectStmt)}, nil
	case p.at(TokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(TokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(TokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(TokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(TokKeyword, "MERGE"):
		p.pos++
		if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &MergeStmt{Table: name}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected %q", p.cur().Text)
	}
}

func (p *Parser) ident() (string, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return "", fmt.Errorf("sql: expected identifier, got %q", t.Text)
	}
	p.pos++
	return t.Text, nil
}

func (p *Parser) parseCreate() (Stmt, error) {
	p.pos++ // CREATE
	if p.accept(TokKeyword, "INDEX") {
		return nil, fmt.Errorf("sql: CREATE INDEX is not supported")
	}
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name}
	for {
		if p.accept(TokKeyword, "PRIMARY") {
			if _, err := p.expect(TokKeyword, "KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return nil, err
			}
			for {
				kc, err := p.ident()
				if err != nil {
					return nil, err
				}
				st.KeyCols = append(st.KeyCols, kc)
				if !p.accept(TokSymbol, ",") {
					break
				}
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
		} else {
			cn, err := p.ident()
			if err != nil {
				return nil, err
			}
			tt := p.cur()
			if tt.Kind != TokIdent && tt.Kind != TokKeyword {
				return nil, fmt.Errorf("sql: expected type after column %q", cn)
			}
			p.pos++
			ct, err := types.ParseType(tt.Text)
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, types.Column{Name: cn, Type: ct})
		}
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseInsert() (Stmt, error) {
	p.pos++ // INSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if p.accept(TokSymbol, "(") {
		for {
			cn, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, cn)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var row []AstExpr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	return st, nil
}

func (p *Parser) parseTableRef() (*TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	tr := &TableRef{Table: name}
	if p.accept(TokKeyword, "AS") {
		tr.Alias, err = p.ident()
		if err != nil {
			return nil, err
		}
	} else if p.cur().Kind == TokIdent {
		tr.Alias, _ = p.ident()
	}
	if tr.Alias == "" {
		tr.Alias = tr.Table
	}
	return tr, nil
}

func (p *Parser) parseSelect() (Stmt, error) {
	p.pos++ // SELECT
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.accept(TokKeyword, "DISTINCT")
	for {
		if p.accept(TokSymbol, "*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(TokKeyword, "AS") {
				item.Alias, err = p.ident()
				if err != nil {
					return nil, err
				}
			} else if p.cur().Kind == TokIdent {
				item.Alias, _ = p.ident()
			}
			st.Items = append(st.Items, item)
		}
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "FROM") {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		st.From = tr
		for {
			left := false
			if p.accept(TokKeyword, "LEFT") {
				left = true
				if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
					return nil, err
				}
			} else if p.accept(TokKeyword, "INNER") {
				if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
					return nil, err
				}
			} else if !p.accept(TokKeyword, "JOIN") {
				break
			}
			jt, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Joins = append(st.Joins, JoinClause{Left: left, Table: jt, On: on})
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = h
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if p.accept(TokKeyword, "DESC") {
				oi.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, oi)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	if p.accept(TokKeyword, "OFFSET") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		st.Offset = n
	}
	return st, nil
}

func (p *Parser) parseInt() (int, error) {
	t := p.cur()
	if t.Kind != TokNumber {
		return 0, fmt.Errorf("sql: expected number, got %q", t.Text)
	}
	p.pos++
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, fmt.Errorf("sql: bad integer %q", t.Text)
	}
	return n, nil
}

func (p *Parser) parseUpdate() (Stmt, error) {
	p.pos++ // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name}
	for {
		cn, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, SetClause{Col: cn, Expr: e})
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *Parser) parseDelete() (Stmt, error) {
	p.pos++ // DELETE
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

// Expression grammar (precedence climbing):
//   expr    := orExpr
//   orExpr  := andExpr (OR andExpr)*
//   andExpr := notExpr (AND notExpr)*
//   notExpr := NOT notExpr | cmpExpr
//   cmpExpr := addExpr ((=|<>|<|<=|>|>=) addExpr | IS [NOT] NULL
//              | IN (lit,...) | [NOT] LIKE 'pat')?
//   addExpr := mulExpr ((+|-) mulExpr)*
//   mulExpr := unary ((*|/|%) unary)*
//   unary   := - unary | primary
//   primary := literal | agg | col | ( expr )

// descend enters one level of expression nesting; the caller defers
// p.ascend once it succeeds.
func (p *Parser) descend() error {
	if p.depth >= maxExprDepth {
		return fmt.Errorf("sql: expression nested deeper than %d", maxExprDepth)
	}
	p.depth++
	return nil
}

func (p *Parser) ascend() { p.depth-- }

func (p *Parser) parseExpr() (AstExpr, error) {
	if err := p.descend(); err != nil {
		return nil, err
	}
	defer p.ascend()
	return p.parseOr()
}

func (p *Parser) parseOr() (AstExpr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (AstExpr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (AstExpr, error) {
	if p.accept(TokKeyword, "NOT") {
		if err := p.descend(); err != nil {
			return nil, err
		}
		defer p.ascend()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parseCmp()
}

func (p *Parser) parseCmp() (AstExpr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "<>", "<=", ">=", "<", ">"} {
		if p.accept(TokSymbol, op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: op, L: l, R: r}, nil
		}
	}
	if p.accept(TokKeyword, "IS") {
		neg := p.accept(TokKeyword, "NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Negate: neg}, nil
	}
	neg := false
	if p.at(TokKeyword, "NOT") && p.pos+1 < len(p.toks) &&
		(p.toks[p.pos+1].Text == "IN" || p.toks[p.pos+1].Text == "LIKE") {
		p.pos++
		neg = true
	}
	if p.accept(TokKeyword, "IN") {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var vals []types.Value
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			vals = append(vals, lit)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		var e AstExpr = &InExpr{E: l, Vals: vals}
		if neg {
			e = &NotExpr{E: e}
		}
		return e, nil
	}
	if p.accept(TokKeyword, "LIKE") {
		t := p.cur()
		if t.Kind != TokString {
			return nil, fmt.Errorf("sql: LIKE requires a string pattern")
		}
		p.pos++
		var e AstExpr = &LikeExpr{E: l, Pattern: t.Text}
		if neg {
			e = &NotExpr{E: e}
		}
		return e, nil
	}
	if neg {
		return nil, fmt.Errorf("sql: dangling NOT")
	}
	return l, nil
}

func (p *Parser) parseAdd() (AstExpr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokSymbol, "+"):
			op = "+"
		case p.accept(TokSymbol, "-"):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMul() (AstExpr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokSymbol, "*"):
			op = "*"
		case p.accept(TokSymbol, "/"):
			op = "/"
		case p.accept(TokSymbol, "%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (AstExpr, error) {
	if p.accept(TokSymbol, "-") {
		if err := p.descend(); err != nil {
			return nil, err
		}
		defer p.ascend()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*LitExpr); ok && lit.Val.Typ == types.Int64 {
			return &LitExpr{Val: types.NewInt(-lit.Val.I)}, nil
		}
		if lit, ok := e.(*LitExpr); ok && lit.Val.Typ == types.Float64 {
			return &LitExpr{Val: types.NewFloat(-lit.Val.F)}, nil
		}
		return &BinExpr{Op: "-", L: &LitExpr{Val: types.NewInt(0)}, R: e}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parseLiteral() (types.Value, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.pos++
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return types.Value{}, fmt.Errorf("sql: bad number %q", t.Text)
			}
			return types.NewFloat(f), nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("sql: bad number %q", t.Text)
		}
		return types.NewInt(n), nil
	case t.Kind == TokString:
		p.pos++
		return types.NewString(t.Text), nil
	case t.Kind == TokKeyword && t.Text == "NULL":
		p.pos++
		return types.NewNull(types.Int64), nil
	case t.Kind == TokKeyword && t.Text == "TRUE":
		p.pos++
		return types.NewBool(true), nil
	case t.Kind == TokKeyword && t.Text == "FALSE":
		p.pos++
		return types.NewBool(false), nil
	}
	return types.Value{}, fmt.Errorf("sql: expected literal, got %q", t.Text)
}

func (p *Parser) parsePrimary() (AstExpr, error) {
	t := p.cur()
	// Aggregates.
	if t.Kind == TokKeyword {
		switch t.Text {
		case "COUNT", "SUM", "MIN", "MAX", "AVG":
			fn := t.Text
			p.pos++
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return nil, err
			}
			if fn == "COUNT" && p.accept(TokSymbol, "*") {
				if _, err := p.expect(TokSymbol, ")"); err != nil {
					return nil, err
				}
				return &AggExpr{Func: fn, Star: true}, nil
			}
			p.accept(TokKeyword, "DISTINCT") // parsed, treated as plain
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return &AggExpr{Func: fn, Arg: arg}, nil
		case "NULL", "TRUE", "FALSE":
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			return &LitExpr{Val: v}, nil
		}
	}
	if t.Kind == TokNumber || t.Kind == TokString {
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &LitExpr{Val: v}, nil
	}
	if p.accept(TokSymbol, "?") {
		e := &ParamExpr{Idx: p.nParams}
		p.nParams++
		return e, nil
	}
	if p.accept(TokSymbol, "(") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	if t.Kind == TokIdent {
		name, _ := p.ident()
		if p.accept(TokSymbol, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColExpr{Table: name, Name: col}, nil
		}
		return &ColExpr{Name: name}, nil
	}
	return nil, fmt.Errorf("sql: unexpected %q in expression", t.Text)
}
