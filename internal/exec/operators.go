package exec

import (
	"fmt"

	"repro/internal/types"
)

// Operator is a vectorized volcano operator: Next returns batches until
// it returns nil for end-of-stream.
type Operator interface {
	// Schema describes the operator's output.
	Schema() *types.Schema
	// Next returns the next batch, or nil at end of stream.
	Next() (*types.Batch, error)
	// Reset rewinds the operator so it can be re-executed.
	Reset()
}

// Source replays a fixed list of batches (the bridge from storage scans
// and the unit-test harness into the pipeline).
type Source struct {
	schema  *types.Schema
	batches []*types.Batch
	pos     int
}

// NewSource creates a source over pre-built batches.
func NewSource(schema *types.Schema, batches []*types.Batch) *Source {
	return &Source{schema: schema, batches: batches}
}

// NewSourceFromRows chops rows into batches of batchSize.
func NewSourceFromRows(schema *types.Schema, rows []types.Row, batchSize int) *Source {
	if batchSize < 1 {
		batchSize = 1024
	}
	var batches []*types.Batch
	for off := 0; off < len(rows); off += batchSize {
		end := off + batchSize
		if end > len(rows) {
			end = len(rows)
		}
		b := types.NewBatch(schema, end-off)
		for _, r := range rows[off:end] {
			b.AppendRow(r)
		}
		batches = append(batches, b)
	}
	return &Source{schema: schema, batches: batches}
}

// Schema implements Operator.
func (s *Source) Schema() *types.Schema { return s.schema }

// Next implements Operator.
func (s *Source) Next() (*types.Batch, error) {
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}

// Reset implements Operator.
func (s *Source) Reset() { s.pos = 0 }

// CallbackSource pulls batches from a generator function (used to stream
// storage scans without materializing them).
type CallbackSource struct {
	schema *types.Schema
	gen    func(reset bool) (*types.Batch, error)
}

// NewCallbackSource wraps gen; gen is called with reset=true after Reset.
func NewCallbackSource(schema *types.Schema, gen func(reset bool) (*types.Batch, error)) *CallbackSource {
	return &CallbackSource{schema: schema, gen: gen}
}

// Schema implements Operator.
func (c *CallbackSource) Schema() *types.Schema { return c.schema }

// Next implements Operator.
func (c *CallbackSource) Next() (*types.Batch, error) { return c.gen(false) }

// Reset implements Operator.
func (c *CallbackSource) Reset() { _, _ = c.gen(true) }

// Filter keeps rows whose predicate evaluates to true, producing
// selection vectors rather than copying survivors. The selection buffer
// and batch header are reused across calls: a returned batch is valid
// only until the next Next or Reset.
type Filter struct {
	in Operator
	workerFilter
}

// NewFilter wraps in with a predicate.
func NewFilter(in Operator, pred Expr) *Filter {
	return &Filter{in: in, workerFilter: workerFilter{pred: pred}}
}

// Schema implements Operator.
func (f *Filter) Schema() *types.Schema { return f.in.Schema() }

// Next implements Operator.
func (f *Filter) Next() (*types.Batch, error) {
	for {
		b, err := f.in.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if out, err := f.apply(b); err != nil || out != nil {
			return out, err
		}
	}
}

// Reset implements Operator.
func (f *Filter) Reset() { f.in.Reset() }

// Projection computes output columns from expressions. The output batch
// is reused across calls: a returned batch is valid only until the next
// Next or Reset.
type Projection struct {
	in Operator
	workerProj
}

// NewProjection builds a projection; names label the output columns.
func NewProjection(in Operator, exprs []Expr, names []string) *Projection {
	cols := make([]types.Column, len(exprs))
	for i, e := range exprs {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		if name == "" {
			name = e.String()
		}
		cols[i] = types.Column{Name: name, Type: e.Type(in.Schema())}
	}
	return &Projection{in: in, workerProj: workerProj{exprs: exprs, schema: &types.Schema{Cols: cols}}}
}

// Schema implements Operator.
func (p *Projection) Schema() *types.Schema { return p.schema }

// Next implements Operator.
func (p *Projection) Next() (*types.Batch, error) {
	b, err := p.in.Next()
	if err != nil || b == nil {
		return nil, err
	}
	return p.apply(b)
}

// Reset implements Operator.
func (p *Projection) Reset() { p.in.Reset() }

// Limit caps the number of rows delivered. The selection buffer and
// batch header are reused across calls: a returned batch is valid only
// until the next Next or Reset.
type Limit struct {
	in        Operator
	limit     int
	offset    int
	skipped   int
	delivered int
	sel       []int
	out       types.Batch
}

// NewLimit wraps in with LIMIT/OFFSET semantics.
func NewLimit(in Operator, limit, offset int) *Limit {
	return &Limit{in: in, limit: limit, offset: offset}
}

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.in.Schema() }

// Next implements Operator.
func (l *Limit) Next() (*types.Batch, error) {
	for {
		if l.limit >= 0 && l.delivered >= l.limit {
			return nil, nil
		}
		b, err := l.in.Next()
		if err != nil || b == nil {
			return nil, err
		}
		sel := l.sel[:0]
		for i := 0; i < b.Len(); i++ {
			if l.skipped < l.offset {
				l.skipped++
				continue
			}
			if l.limit >= 0 && l.delivered >= l.limit {
				break
			}
			sel = append(sel, b.RowIdx(i))
			l.delivered++
		}
		l.sel = sel[:0]
		if len(sel) == 0 {
			continue
		}
		l.out = types.Batch{Schema: b.Schema, Cols: b.Cols, Sel: sel}
		return &l.out, nil
	}
}

// Reset implements Operator.
func (l *Limit) Reset() {
	l.in.Reset()
	l.skipped, l.delivered = 0, 0
}

// Collect drains an operator into a row slice (test/driver helper).
func Collect(op Operator) ([]types.Row, error) {
	var rows []types.Row
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
	}
}

// CollectCount drains an operator counting rows without materializing.
func CollectCount(op Operator) (int, error) {
	n := 0
	for {
		b, err := op.Next()
		if err != nil {
			return 0, err
		}
		if b == nil {
			return n, nil
		}
		n += b.Len()
	}
}

// errSchema is a helper for operator construction errors.
func errSchema(op string, err error) error { return fmt.Errorf("exec: %s: %w", op, err) }
