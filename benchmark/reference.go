package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// The reference evaluator computes each of the 17 queries directly
// from the generated dataset, so that results can be checked for any
// seed. It is deliberately naive: maps and loops, no engine code.

// orderKey is one ORDER BY term.
type orderKey struct {
	col  int
	desc bool
}

// refResult is what a query must return: every qualifying row before
// LIMIT, the ORDER BY terms, and the limit (negative: none). Rows hold
// int64, float64, string or nil.
type refResult struct {
	rows  [][]any
	order []orderKey
	limit int
}

func asc(c int) orderKey  { return orderKey{c, false} }
func desc(c int) orderKey { return orderKey{c, true} }

// cmpVal orders two values of the same kind; numbers compare by value.
func cmpVal(a, b any) int {
	if sa, ok := a.(string); ok {
		return strings.Compare(sa, b.(string))
	}
	fa, fb := toFloat(a), toFloat(b)
	switch {
	case fa < fb:
		return -1
	case fa > fb:
		return 1
	}
	return 0
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return math.NaN()
}

// sorted returns the rows in ORDER BY order, ties broken by the whole
// row so that the output is canonical.
func (r refResult) sorted() [][]any {
	rows := append([][]any(nil), r.rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range r.order {
			if c := cmpVal(rows[i][k.col], rows[j][k.col]); c != 0 {
				return (c < 0) != k.desc
			}
		}
		for c := range rows[i] {
			if d := cmpVal(rows[i][c], rows[j][c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
	return rows
}

// limited is the canonical expected output (sorted, then LIMIT).
func (r refResult) limited() [][]any {
	rows := r.sorted()
	if r.limit >= 0 && len(rows) > r.limit {
		rows = rows[:r.limit]
	}
	return rows
}

// relTol is the float tolerance: parallel partial sums may differ in
// the last bits.
const relTol = 1e-9

func sameVal(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	sa, aStr := a.(string)
	sb, bStr := b.(string)
	if aStr || bStr {
		return aStr && bStr && sa == sb
	}
	fa, fb := toFloat(a), toFloat(b)
	return fa == fb || math.Abs(fa-fb) <= relTol*math.Max(math.Abs(fa), math.Abs(fb))
}

func sameRow(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameVal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// check reports whether got is a correct answer. The ORDER BY keys
// must match position by position; rows whose keys tie may come in any
// order, and where LIMIT cuts a group of ties any of its members may
// appear, each at most once.
func (r refResult) check(got [][]any) error {
	ref := r.sorted()
	want := len(ref)
	if r.limit >= 0 && want > r.limit {
		want = r.limit
	}
	if len(got) != want {
		return fmt.Errorf("got %d rows, want %d", len(got), want)
	}
	sameKeys := func(a, b []any) bool {
		for _, k := range r.order {
			if !sameVal(a[k.col], b[k.col]) {
				return false
			}
		}
		return true
	}
	used := make([]bool, len(ref))
	for i, g := range got {
		if len(g) != len(ref[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(g), len(ref[i]))
		}
		if !sameKeys(g, ref[i]) {
			return fmt.Errorf("row %d: got %v, want sort keys of %v", i, g, ref[i])
		}
		lo, hi := i, i
		for lo > 0 && sameKeys(ref[lo-1], ref[i]) {
			lo--
		}
		for hi+1 < len(ref) && sameKeys(ref[hi+1], ref[i]) {
			hi++
		}
		found := false
		for j := lo; j <= hi; j++ {
			if !used[j] && sameRow(g, ref[j]) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return fmt.Errorf("row %d: %v is not an unused row of the expected result", i, g)
		}
	}
	return nil
}

func (d *chData) customer(w, di, c int64) *customerRow {
	return &d.customers[((w-1)*int64(d.scale.Districts)+(di-1))*int64(d.scale.Customers)+(c-1)]
}

func (d *chData) order(w, di, o int64) *orderRow {
	return &d.orders[((w-1)*int64(d.scale.Districts)+(di-1))*int64(d.scale.Orders)+(o-1)]
}

func (d *chData) stockOf(w, i int64) *stockRow {
	return &d.stock[(w-1)*int64(d.scale.Items)+(i-1)]
}

type sums struct {
	n   int64
	qty int64
	amt float64
}

// reference evaluates query q (1-based) on the initial dataset.
func (d *chData) reference(q int) refResult {
	var rows [][]any
	switch q {
	case 1:
		g := map[int64]*sums{}
		for _, l := range d.lines {
			if l.deliveryD > 0 {
				s := group(g, l.number)
				s.n, s.qty, s.amt = s.n+1, s.qty+l.quantity, s.amt+l.amount
			}
		}
		for k, s := range g {
			rows = append(rows, []any{k, s.qty, s.amt, float64(s.qty) / float64(s.n), s.amt / float64(s.n), s.n})
		}
		return refResult{rows, []orderKey{asc(0)}, -1}
	case 2:
		g := map[int64]*sums{}
		for _, s := range d.stock {
			group(g, s.i).n += s.orderCnt
		}
		for k, s := range g {
			rows = append(rows, []any{k, s.n})
		}
		return refResult{rows, []orderKey{desc(1)}, 10}
	case 3:
		type oid struct{ w, d, o int64 }
		g := map[oid]*sums{}
		for _, l := range d.lines {
			if d.order(l.w, l.d, l.o).carrier == 0 {
				group(g, oid{l.w, l.d, l.o}).amt += l.amount
			}
		}
		for k, s := range g {
			rows = append(rows, []any{k.w, k.d, k.o, s.amt})
		}
		return refResult{rows, []orderKey{desc(3)}, 10}
	case 4:
		g := map[int64]*sums{}
		for _, o := range d.orders {
			group(g, o.olCnt).n++
		}
		for k, s := range g {
			rows = append(rows, []any{k, s.n})
		}
		return refResult{rows, []orderKey{asc(0)}, -1}
	case 5:
		g := map[string]*sums{}
		for _, l := range d.lines {
			group(g, d.customer(l.w, l.d, d.order(l.w, l.d, l.o).c).state).amt += l.amount
		}
		for k, s := range g {
			rows = append(rows, []any{k, s.amt})
		}
		return refResult{rows, []orderKey{desc(1)}, -1}
	case 6:
		var total float64
		for _, l := range d.lines {
			if l.quantity >= 2 && l.quantity <= 8 {
				total += l.amount
			}
		}
		return refResult{[][]any{{total}}, nil, -1}
	case 7:
		for _, c := range d.customers {
			if c.balance > 0 {
				rows = append(rows, []any{c.last, c.balance})
			}
		}
		return refResult{rows, []orderKey{desc(1)}, 10}
	case 8:
		g := map[string]*sums{}
		for _, o := range d.orders {
			group(g, d.warehouses[o.w-1].state).n++
		}
		for k, s := range g {
			rows = append(rows, []any{k, s.n})
		}
		return refResult{rows, []orderKey{desc(1)}, -1}
	case 9:
		g := map[string]*sums{}
		for _, c := range d.customers {
			s := group(g, c.credit)
			s.n, s.amt = s.n+1, s.amt+c.balance
		}
		for k, s := range g {
			// c_ytd_payment is 10 for every initial customer.
			rows = append(rows, []any{k, s.n, s.amt / float64(s.n), float64(10 * s.n)})
		}
		return refResult{rows, []orderKey{asc(0)}, -1}
	case 10:
		g := map[int64]*sums{}
		for _, o := range d.orders {
			if o.carrier > 0 {
				group(g, o.carrier).n++
			}
		}
		for k, s := range g {
			rows = append(rows, []any{k, s.n})
		}
		return refResult{rows, []orderKey{desc(1)}, -1}
	case 11:
		for _, it := range d.items {
			if strings.HasPrefix(it.data, "ORIG") {
				rows = append(rows, []any{it.id, it.name, it.price})
			}
		}
		return refResult{rows, []orderKey{desc(2)}, 20}
	case 12:
		g := map[int64]*sums{}
		for _, l := range d.lines {
			if d.items[l.i-1].price > 50 {
				s := group(g, l.i)
				s.qty, s.amt = s.qty+l.quantity, s.amt+l.amount
			}
		}
		for k, s := range g {
			rows = append(rows, []any{k, s.amt, s.qty})
		}
		return refResult{rows, []orderKey{desc(1)}, 10}
	case 13:
		type pair struct{ last, state string }
		g := map[pair]*sums{}
		for _, o := range d.orders {
			if o.carrier > 0 {
				c := d.customer(o.w, o.d, o.c)
				group(g, pair{c.last, c.state})
			}
		}
		for k := range g {
			rows = append(rows, []any{k.last, k.state})
		}
		return refResult{rows, []orderKey{asc(0)}, 50}
	case 14:
		g := map[string]*sums{}
		for _, l := range d.lines {
			if d.items[l.i-1].price > 80 {
				s := group(g, d.customer(l.w, l.d, d.order(l.w, l.d, l.o).c).state)
				s.n, s.qty = s.n+1, s.qty+l.quantity
			}
		}
		for k, s := range g {
			rows = append(rows, []any{k, s.n, s.qty})
		}
		return refResult{rows, []orderKey{desc(2)}, -1}
	case 15:
		g := map[int64]*sums{}
		for _, l := range d.lines {
			// ol_supply_w_id equals ol_w_id in the generated data.
			if d.items[l.i-1].price <= 20 && d.stockOf(l.w, l.i).quantity < 50 {
				group(g, l.i).qty += l.quantity
			}
		}
		for k, s := range g {
			rows = append(rows, []any{k, s.qty})
		}
		return refResult{rows, []orderKey{desc(1)}, 10}
	case 16:
		g := map[string]*sums{}
		for _, l := range d.lines {
			if l.w == 1 && d.order(l.w, l.d, l.o).carrier == 0 {
				group(g, d.districts[l.d-1].name).n++
			}
		}
		for k, s := range g {
			rows = append(rows, []any{k, s.n})
		}
		return refResult{rows, []orderKey{desc(1)}, -1}
	case 17:
		g := map[int64]*sums{}
		for _, o := range d.orders {
			// Initial orders are in new_order exactly when undelivered.
			if o.carrier != 0 && o.olCnt >= 8 {
				group(g, o.olCnt).n++
			}
		}
		for k, s := range g {
			rows = append(rows, []any{k, s.n})
		}
		return refResult{rows, []orderKey{asc(0)}, -1}
	}
	panic(fmt.Sprintf("no query %d", q))
}

func group[K comparable](g map[K]*sums, k K) *sums {
	s := g[k]
	if s == nil {
		s = &sums{}
		g[k] = s
	}
	return s
}

// dashReference evaluates the dashboard query over readings.
func dashReference(readings []reading, fromTS int64) refResult {
	type agg struct {
		n        int64
		sum, max float64
	}
	g := map[int]*agg{}
	for _, r := range readings {
		if r.metric != 0 || r.ts < fromTS {
			continue
		}
		a := g[r.host]
		if a == nil {
			a = &agg{max: math.Inf(-1)}
			g[r.host] = a
		}
		a.n, a.sum, a.max = a.n+1, a.sum+r.value, math.Max(a.max, r.value)
	}
	var rows [][]any
	for h, a := range g {
		rows = append(rows, []any{hostNames[h], a.n, a.sum / float64(a.n), a.max})
	}
	return refResult{rows, nil, -1}
}
