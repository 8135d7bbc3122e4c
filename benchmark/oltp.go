package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/client"
)

// catalog is what OLTP clients know about the dataset: its shape, the
// item prices (a client prices its own order lines), the size of each
// initial order, and the balance each customer should have. Clients
// write disjoint parts of balance, see oltpGen.
type catalog struct {
	scale   chScale
	prices  []float64
	olCnt   []int64
	balance []float64
}

func newCatalog(d *chData) *catalog {
	c := &catalog{scale: d.scale}
	for _, it := range d.items {
		c.prices = append(c.prices, it.price)
	}
	for _, o := range d.orders {
		c.olCnt = append(c.olCnt, o.olCnt)
	}
	for _, cu := range d.customers {
		c.balance = append(c.balance, cu.balance)
	}
	return c
}

func (c *catalog) customerIdx(w, d, id int64) int {
	return int(((w-1)*int64(c.scale.Districts)+(d-1))*int64(c.scale.Customers) + (id - 1))
}

func (c *catalog) orderIdx(w, d, o int64) int {
	return int(((w-1)*int64(c.scale.Districts)+(d-1))*int64(c.scale.Orders) + (o - 1))
}

type lineSpec struct{ item, qty int64 }

// op is one generated OLTP operation.
type op struct {
	class   class
	w, d, c int64
	amount  float64    // payment
	hist    int64      // payment: history key
	o       int64      // order_status: an initial order
	lines   []lineSpec // new_order
}

// oltpGen generates one client's operation stream from the seed alone.
//
// Reads range over every customer. Writes stay in the client's own
// part: districts and items whose number is congruent to the client's
// index, as a TPC-C terminal is bound to its warehouse. Snapshot
// isolation aborts the second writer of a row at once, so two clients
// writing the same district would fail operations at a rate set by
// timing; with disjoint parts no operation fails and every run does
// the same work.
type oltpGen struct {
	rng         *rand.Rand
	scale       chScale
	part, parts int
	nextHist    int64
}

func newOLTPGen(sc chScale, seed int64, part, parts int) *oltpGen {
	return &oltpGen{
		rng:   rand.New(rand.NewSource(seed*7919 + int64(part) + 1)),
		scale: sc, part: part, parts: parts,
		nextHist: int64(part) * 1_000_000_000,
	}
}

// own draws a number in [1, n] congruent to the client's part.
func (g *oltpGen) own(n int) int64 {
	per := n / g.parts
	return int64(g.rng.Intn(per)*g.parts + g.part + 1)
}

func (g *oltpGen) next() op {
	sc := g.scale
	any := func(n int) int64 { return int64(1 + g.rng.Intn(n)) }
	switch r := g.rng.Intn(100); {
	case r < 45:
		return op{class: clRead, w: any(sc.Warehouses), d: any(sc.Districts), c: any(sc.Customers)}
	case r < 50:
		return op{class: clAdhocRead, w: any(sc.Warehouses), d: any(sc.Districts), c: any(sc.Customers)}
	case r < 80:
		g.nextHist++
		return op{
			class: clPayment, w: any(sc.Warehouses), d: g.own(sc.Districts), c: any(sc.Customers),
			amount: float64(any(5000)), hist: g.nextHist,
		}
	case r < 95:
		o := op{class: clNewOrder, w: any(sc.Warehouses), d: g.own(sc.Districts), c: any(sc.Customers)}
		n := 5 + g.rng.Intn(6)
		seen := map[int64]bool{}
		for len(o.lines) < n {
			// An order names an item once: two lines for one item would
			// update the same stock row twice in one transaction.
			if it := g.own(sc.Items); !seen[it] {
				seen[it] = true
				o.lines = append(o.lines, lineSpec{it, any(10)})
			}
		}
		return o
	default:
		return op{class: clOrderStatus, w: any(sc.Warehouses), d: any(sc.Districts), o: any(sc.Orders)}
	}
}

// acks are the writes a client was told were committed; after the run
// the reopened database must hold exactly these.
type acks struct {
	payments, newOrders, lines int64
	amount                     float64
	rows                       int64 // ingest
}

func (a *acks) add(b acks) {
	a.payments += b.payments
	a.newOrders += b.newOrders
	a.lines += b.lines
	a.amount += b.amount
	a.rows += b.rows
}

// oltpClient runs an operation stream over one connection.
type oltpClient struct {
	conn *client.Conn
	gen  *oltpGen
	cat  *catalog
	rec  *recorder
	acks acks

	read, payDistrict, payCustomer, payHistory, nextOrder, bumpOrder *client.Stmt
	insOrder, insNewOrder, getStock, updStock, insLine, orderStatus  *client.Stmt
}

func newOLTPClient(conn *client.Conn, cat *catalog, seed int64, part, parts int) (*oltpClient, error) {
	c := &oltpClient{conn: conn, cat: cat, gen: newOLTPGen(cat.scale, seed, part, parts)}
	for _, p := range []struct {
		st  **client.Stmt
		sql string
	}{
		{&c.read, readSQL}, {&c.payDistrict, payDistrictSQL}, {&c.payCustomer, payCustomerSQL},
		{&c.payHistory, payHistorySQL}, {&c.nextOrder, nextOrderSQL}, {&c.bumpOrder, bumpOrderSQL},
		{&c.insOrder, insOrderSQL}, {&c.insNewOrder, insNewOrderSQL}, {&c.getStock, getStockSQL},
		{&c.updStock, updStockSQL}, {&c.insLine, insLineSQL}, {&c.orderStatus, orderStatusSQL},
	} {
		st, err := conn.Prepare(p.sql)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", p.sql, err)
		}
		*p.st = st
	}
	return c, nil
}

// run executes operations until the window closes. An operation the
// server refuses counts as failed and the client carries on; a broken
// connection or a wrong answer ends the run.
func (c *oltpClient) run(rec *recorder) error {
	c.rec = rec
	for time.Now().Before(c.rec.win.t1) {
		o := c.gen.next()
		c.rec.attempted++
		start := time.Now()
		c.rec.beginOp(o.class, start)
		res, err := c.do(o)
		end := time.Now()
		c.rec.endOp(end)
		switch {
		case err == nil:
			c.rec.add(o.class, start, end, res)
			c.rec.opDone(end)
		case isRefusal(err):
			c.rec.failed++
		default:
			return fmt.Errorf("%s: %w", classNames[o.class], err)
		}
	}
	return nil
}

// isRefusal reports an error the server returned for one statement;
// the session stays usable.
func isRefusal(err error) bool {
	var se *client.ServerError
	return errors.As(err, &se)
}

// exec runs one statement of a transaction and records it.
func (c *oltpClient) exec(cl class, name string, f func() (client.Result, error)) error {
	start := time.Now()
	res, err := f()
	if err != nil {
		return err
	}
	end := time.Now()
	c.rec.add(cl, start, end, res)
	c.rec.stmtSpan(name, start, end, res)
	return nil
}

// query runs a SELECT and returns its rows and the server's figures.
func (c *oltpClient) query(name string, f func() (*client.Rows, error)) ([][]any, client.Result, error) {
	start := time.Now()
	rows, err := f()
	if err != nil {
		return nil, client.Result{}, err
	}
	out, err := drain(rows)
	if err != nil {
		return nil, client.Result{}, err
	}
	c.rec.stmtSpan(name, start, time.Now(), rows.Result())
	return out, rows.Result(), nil
}

// drain reads every row of a cursor.
func drain(rows *client.Rows) ([][]any, error) {
	var out [][]any
	n := len(rows.Columns())
	for rows.Next() {
		row := make([]any, n)
		ptrs := make([]any, n)
		for i := range row {
			ptrs[i] = &row[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, rows.Err()
}

// do runs one operation. For an operation of one statement it returns
// the server's figures for that statement.
func (c *oltpClient) do(o op) (client.Result, error) {
	switch o.class {
	case clRead:
		rows, res, err := c.query("read", func() (*client.Rows, error) { return c.read.Query(o.w, o.d, o.c) })
		if err != nil {
			return res, err
		}
		return res, c.checkBalance(o, rows)
	case clAdhocRead:
		rows, res, err := c.query("adhoc_read", func() (*client.Rows, error) {
			return c.conn.Query(fmt.Sprintf(adhocReadSQL, o.w, o.d, o.c))
		})
		if err != nil {
			return res, err
		}
		return res, c.checkBalance(o, rows)
	case clOrderStatus:
		rows, res, err := c.query("order_status", func() (*client.Rows, error) {
			return c.orderStatus.Query(o.w, o.d, o.o)
		})
		if err != nil {
			return res, err
		}
		if want := c.cat.olCnt[c.cat.orderIdx(o.w, o.d, o.o)]; int64(len(rows)) != want {
			return res, fmt.Errorf("order %d/%d/%d has %d lines, want %d", o.w, o.d, o.o, len(rows), want)
		}
		return res, nil
	case clPayment:
		return client.Result{}, c.inTxn(func() error { return c.payment(o) }, func() {
			c.acks.payments++
			c.acks.amount += o.amount
			c.cat.balance[c.cat.customerIdx(o.w, o.d, o.c)] -= o.amount
		})
	default:
		return client.Result{}, c.inTxn(func() error { return c.newOrder(o) }, func() {
			c.acks.newOrders++
			c.acks.lines += int64(len(o.lines))
		})
	}
}

// checkBalance checks a read of c_balance. Only the client that writes
// a customer knows its balance exactly.
func (c *oltpClient) checkBalance(o op, rows [][]any) error {
	if len(rows) != 1 || len(rows[0]) != 1 {
		return fmt.Errorf("customer %d/%d/%d: got %d rows", o.w, o.d, o.c, len(rows))
	}
	got, ok := rows[0][0].(float64)
	if !ok || got != math.Trunc(got) {
		return fmt.Errorf("customer %d/%d/%d: balance %v is not a whole amount", o.w, o.d, o.c, rows[0][0])
	}
	if int(o.d-1)%c.gen.parts != c.gen.part {
		return nil
	}
	if want := c.cat.balance[c.cat.customerIdx(o.w, o.d, o.c)]; got != want {
		return fmt.Errorf("customer %d/%d/%d: balance %v, want %v", o.w, o.d, o.c, got, want)
	}
	return nil
}

// inTxn wraps body in BEGIN … COMMIT; acked runs once COMMIT is
// acknowledged. A refused statement rolls the transaction back.
func (c *oltpClient) inTxn(body func() error, acked func()) error {
	err := c.exec(clBegin, "begin", func() (client.Result, error) { return c.conn.Exec("BEGIN") })
	if err != nil {
		return err
	}
	if err = body(); err == nil {
		err = c.exec(clCommit, "commit", func() (client.Result, error) { return c.conn.Exec("COMMIT") })
		if err == nil {
			acked()
			return nil
		}
	}
	if isRefusal(err) {
		// A refused COMMIT has already closed the transaction, and then
		// ROLLBACK is refused too; either way the session is clean.
		_, _ = c.conn.Exec("ROLLBACK")
	}
	return err
}

func (c *oltpClient) write(name string, st *client.Stmt, args ...any) error {
	return c.exec(clWriteStmt, name, func() (client.Result, error) {
		res, err := st.Exec(args...)
		if err == nil && res.RowsAffected != 1 {
			err = fmt.Errorf("%s wrote %d rows, want 1", name, res.RowsAffected)
		}
		return res, err
	})
}

func (c *oltpClient) payment(o op) error {
	if err := c.write("pay_district", c.payDistrict, o.amount, o.w, o.d); err != nil {
		return err
	}
	if err := c.write("pay_customer", c.payCustomer, o.amount, o.amount, o.w, o.d, o.c); err != nil {
		return err
	}
	return c.write("pay_history", c.payHistory, o.hist, o.w, o.d, o.c, o.amount, o.hist)
}

func (c *oltpClient) newOrder(o op) error {
	rows, _, err := c.query("next_order", func() (*client.Rows, error) { return c.nextOrder.Query(o.w, o.d) })
	if err != nil {
		return err
	}
	if len(rows) != 1 {
		return fmt.Errorf("district %d/%d: got %d rows", o.w, o.d, len(rows))
	}
	oid := rows[0][0].(int64)
	if err := c.write("bump_order", c.bumpOrder, o.w, o.d); err != nil {
		return err
	}
	if err := c.write("ins_order", c.insOrder, o.w, o.d, oid, o.c, oid*1000, 0, len(o.lines)); err != nil {
		return err
	}
	if err := c.write("ins_new_order", c.insNewOrder, o.w, o.d, oid); err != nil {
		return err
	}
	for n, l := range o.lines {
		rows, _, err := c.query("get_stock", func() (*client.Rows, error) { return c.getStock.Query(o.w, l.item) })
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			return fmt.Errorf("stock %d/%d: got %d rows", o.w, l.item, len(rows))
		}
		qty := rows[0][0].(int64) - l.qty
		if qty < 10 {
			qty += 91
		}
		if err := c.write("upd_stock", c.updStock, qty, l.qty, o.w, l.item); err != nil {
			return err
		}
		amount := float64(l.qty) * c.cat.prices[l.item-1]
		err = c.write("ins_line", c.insLine, o.w, o.d, oid, n+1, l.item, o.w, l.qty, amount, 0)
		if err != nil {
			return err
		}
	}
	return nil
}
