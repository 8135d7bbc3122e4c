package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/types"
)

// The schema, the generators and the loader below are the benchmark's
// own copies: internal/bench is program code that later changes may
// edit, and the benchmark's inputs must not move with it.

// chScale sizes the CH-benCHmark dataset.
type chScale struct {
	Warehouses, Districts, Customers, Items, Orders int
}

var (
	// scaleCH4 is the reference dataset: ≈158k rows, order_line ≈8.6 MB
	// raw, beyond L2.
	scaleCH4 = chScale{Warehouses: 4, Districts: 10, Customers: 300, Items: 2000, Orders: 300}
	// scaleSmoke is one warehouse of the same shape, for the tests.
	scaleSmoke = chScale{Warehouses: 1, Districts: 10, Customers: 300, Items: 2000, Orders: 300}
)

const (
	metricsRows      = 200_000
	metricsRowsSmoke = 20_000
	metricsHosts     = 50
)

var chTables = []string{
	"warehouse", "district", "customer", "history", "orders",
	"new_order", "order_line", "item", "stock",
}

func chSchemas() map[string]*types.Schema {
	I, F, S := types.Int64, types.Float64, types.String
	col := func(n string, t types.Type) types.Column { return types.Column{Name: n, Type: t} }
	return map[string]*types.Schema{
		"warehouse": types.MustSchema([]types.Column{
			col("w_id", I), col("w_name", S), col("w_state", S), col("w_tax", F), col("w_ytd", F),
		}, "w_id"),
		"district": types.MustSchema([]types.Column{
			col("d_w_id", I), col("d_id", I), col("d_name", S), col("d_tax", F),
			col("d_ytd", F), col("d_next_o_id", I),
		}, "d_w_id", "d_id"),
		"customer": types.MustSchema([]types.Column{
			col("c_w_id", I), col("c_d_id", I), col("c_id", I), col("c_last", S),
			col("c_state", S), col("c_credit", S), col("c_balance", F),
			col("c_ytd_payment", F), col("c_payment_cnt", I),
		}, "c_w_id", "c_d_id", "c_id"),
		"history": types.MustSchema([]types.Column{
			col("h_id", I), col("h_c_w_id", I), col("h_c_d_id", I), col("h_c_id", I),
			col("h_amount", F), col("h_date", I),
		}, "h_id"),
		"orders": types.MustSchema([]types.Column{
			col("o_w_id", I), col("o_d_id", I), col("o_id", I), col("o_c_id", I),
			col("o_entry_d", I), col("o_carrier_id", I), col("o_ol_cnt", I),
		}, "o_w_id", "o_d_id", "o_id"),
		"new_order": types.MustSchema([]types.Column{
			col("no_w_id", I), col("no_d_id", I), col("no_o_id", I),
		}, "no_w_id", "no_d_id", "no_o_id"),
		"order_line": types.MustSchema([]types.Column{
			col("ol_w_id", I), col("ol_d_id", I), col("ol_o_id", I), col("ol_number", I),
			col("ol_i_id", I), col("ol_supply_w_id", I), col("ol_quantity", I),
			col("ol_amount", F), col("ol_delivery_d", I),
		}, "ol_w_id", "ol_d_id", "ol_o_id", "ol_number"),
		"item": types.MustSchema([]types.Column{
			col("i_id", I), col("i_name", S), col("i_price", F), col("i_data", S),
		}, "i_id"),
		"stock": types.MustSchema([]types.Column{
			col("s_w_id", I), col("s_i_id", I), col("s_quantity", I), col("s_ytd", I),
			col("s_order_cnt", I),
		}, "s_w_id", "s_i_id"),
	}
}

func metricsSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "ts", Type: types.Int64}, {Name: "host", Type: types.String},
		{Name: "metric", Type: types.String}, {Name: "value", Type: types.Float64},
	}, "ts", "host", "metric")
}

type (
	itemRow struct {
		id    int64
		name  string
		price float64
		data  string
	}
	warehouseRow struct {
		id          int64
		name, state string
		tax         float64
	}
	districtRow struct {
		w, id int64
		name  string
		tax   float64
		nextO int64
	}
	customerRow struct {
		w, d, id            int64
		last, state, credit string
		balance             float64
	}
	stockRow     struct{ w, i, quantity, ytd, orderCnt int64 }
	orderRow     struct{ w, d, id, c, entryD, carrier, olCnt int64 }
	orderLineRow struct {
		w, d, o, number, i, quantity int64
		amount                       float64
		deliveryD                    int64
	}
)

// chData is the generated CH dataset. The reference evaluator and the
// op generators read it; the program under test only sees the rows the
// loader inserts.
type chData struct {
	scale      chScale
	items      []itemRow
	warehouses []warehouseRow
	districts  []districtRow
	customers  []customerRow
	stock      []stockRow
	orders     []orderRow
	lines      []orderLineRow
}

var (
	chStates    = []string{"CA", "NY", "TX", "WA", "IL", "MA", "OR", "FL"}
	chLastNames = []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}
)

// genCH generates the dataset for seed. Money columns are
// integer-valued so that sums are exact whatever order they are added
// in.
func genCH(sc chScale, seed int64) *chData {
	rng := rand.New(rand.NewSource(seed))
	d := &chData{scale: sc}
	for i := 1; i <= sc.Items; i++ {
		data := "data"
		if rng.Intn(10) == 0 {
			data = "ORIGINAL"
		}
		d.items = append(d.items, itemRow{int64(i), fmt.Sprintf("item-%04d", i), float64(1 + rng.Intn(100)), data})
	}
	for w := 1; w <= sc.Warehouses; w++ {
		d.warehouses = append(d.warehouses, warehouseRow{
			int64(w), fmt.Sprintf("wh-%02d", w), chStates[(w-1)%len(chStates)], rng.Float64() * 0.2,
		})
		for i := 1; i <= sc.Items; i++ {
			d.stock = append(d.stock, stockRow{
				int64(w), int64(i), int64(10 + rng.Intn(91)), int64(rng.Intn(1000)), int64(rng.Intn(100)),
			})
		}
		for di := 1; di <= sc.Districts; di++ {
			d.districts = append(d.districts, districtRow{
				int64(w), int64(di), fmt.Sprintf("dist-%d-%d", w, di), rng.Float64() * 0.2, int64(sc.Orders + 1),
			})
			for c := 1; c <= sc.Customers; c++ {
				credit := "GC"
				if rng.Intn(10) == 0 {
					credit = "BC"
				}
				d.customers = append(d.customers, customerRow{
					int64(w), int64(di), int64(c),
					chLastNames[c%10] + chLastNames[(c/10)%10],
					chStates[rng.Intn(len(chStates))], credit,
					float64(rng.Intn(10000) - 1000),
				})
			}
			for o := 1; o <= sc.Orders; o++ {
				olCnt := 5 + rng.Intn(11)
				carrier := int64(1 + rng.Intn(10))
				// The most recent third are undelivered (in new_order).
				undelivered := o > sc.Orders*2/3
				deliveryD := int64(o * 1000)
				if undelivered {
					carrier, deliveryD = 0, 0
				}
				d.orders = append(d.orders, orderRow{
					int64(w), int64(di), int64(o), int64(1 + rng.Intn(sc.Customers)),
					int64(o * 1000), carrier, int64(olCnt),
				})
				for ol := 1; ol <= olCnt; ol++ {
					d.lines = append(d.lines, orderLineRow{
						int64(w), int64(di), int64(o), int64(ol), int64(1 + rng.Intn(sc.Items)),
						int64(1 + rng.Intn(10)), float64(1 + rng.Intn(9999)), deliveryD,
					})
				}
			}
		}
	}
	return d
}

func iv(v int64) types.Value   { return types.NewInt(v) }
func fv(v float64) types.Value { return types.NewFloat(v) }
func sv(v string) types.Value  { return types.NewString(v) }

// rows streams every initial row, table by table, in load order.
func (d *chData) rows(emit func(table string, row types.Row)) {
	for _, r := range d.items {
		emit("item", types.Row{iv(r.id), sv(r.name), fv(r.price), sv(r.data)})
	}
	for _, r := range d.warehouses {
		emit("warehouse", types.Row{iv(r.id), sv(r.name), sv(r.state), fv(r.tax), fv(0)})
	}
	for _, r := range d.stock {
		emit("stock", types.Row{iv(r.w), iv(r.i), iv(r.quantity), iv(r.ytd), iv(r.orderCnt)})
	}
	for _, r := range d.districts {
		emit("district", types.Row{iv(r.w), iv(r.id), sv(r.name), fv(r.tax), fv(0), iv(r.nextO)})
	}
	for _, r := range d.customers {
		emit("customer", types.Row{
			iv(r.w), iv(r.d), iv(r.id), sv(r.last), sv(r.state), sv(r.credit),
			fv(r.balance), fv(10), iv(1),
		})
	}
	for _, r := range d.orders {
		emit("orders", types.Row{iv(r.w), iv(r.d), iv(r.id), iv(r.c), iv(r.entryD), iv(r.carrier), iv(r.olCnt)})
		if r.carrier == 0 {
			emit("new_order", types.Row{iv(r.w), iv(r.d), iv(r.id)})
		}
	}
	for _, r := range d.lines {
		emit("order_line", types.Row{
			iv(r.w), iv(r.d), iv(r.o), iv(r.number), iv(r.i), iv(r.w), iv(r.quantity),
			fv(r.amount), iv(r.deliveryD),
		})
	}
}

// numRows counts the initial rows.
func (d *chData) numRows() int {
	n := 0
	d.rows(func(string, types.Row) { n++ })
	return n
}

// loadBatch is the number of rows per loader transaction.
const loadBatch = 5000

// loader inserts rows through the engine in transactions of loadBatch.
type loader struct {
	e   *core.Engine
	tx  *core.Tx
	n   int
	err error
}

func (l *loader) insert(table string, row types.Row) {
	if l.err != nil {
		return
	}
	if l.tx == nil {
		l.tx = l.e.Begin()
	}
	if l.err = l.tx.Insert(table, row); l.err != nil {
		_ = l.tx.Abort() // the insert error is the one reported
		return
	}
	if l.n++; l.n%loadBatch == 0 {
		l.commit()
	}
}

func (l *loader) commit() {
	if l.err != nil || l.tx == nil {
		return
	}
	_, l.err = l.tx.Commit()
	l.tx = nil
}

// loadCH creates the nine tables, loads d and merges every table into
// column segments.
func loadCH(e *core.Engine, d *chData) error {
	schemas := chSchemas()
	for _, name := range chTables {
		if _, err := e.CreateTable(name, schemas[name]); err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
	}
	l := &loader{e: e}
	d.rows(l.insert)
	l.commit()
	if l.err != nil {
		return fmt.Errorf("load ch: %w", l.err)
	}
	return mergeAll(e, chTables)
}

func mergeAll(e *core.Engine, tables []string) error {
	for _, name := range tables {
		if _, err := e.Merge(name); err != nil {
			return fmt.Errorf("merge %s: %w", name, err)
		}
	}
	return nil
}

// reading is one telemetry sample.
type reading struct {
	ts     int64
	host   int
	metric int
	value  float64
}

var (
	metricNames = []string{"cpu", "mem", "disk_io", "net_rx", "net_tx", "lat_p99"}
	metricBase  = []float64{50, 70, 200, 1000, 800, 20}
	hostNames   = func() []string {
		h := make([]string, metricsHosts)
		for i := range h {
			h[i] = fmt.Sprintf("host-%03d", i)
		}
		return h
	}()
)

// metricsGen is the machine-telemetry stream: timestamps advance by
// 1–1000 µs per reading (≈2,000 readings per second of stream time),
// host popularity is Zipf 1.3.
type metricsGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	ts   int64
}

func newMetricsGen(seed int64) *metricsGen {
	rng := rand.New(rand.NewSource(seed))
	return &metricsGen{rng: rng, zipf: rand.NewZipf(rng, 1.3, 1, metricsHosts-1), ts: 1_700_000_000_000_000}
}

func (g *metricsGen) next() reading {
	g.ts += int64(1 + g.rng.Intn(1000))
	m := g.rng.Intn(len(metricNames))
	return reading{g.ts, int(g.zipf.Uint64()), m, metricBase[m] * (0.5 + g.rng.Float64())}
}

func (r reading) row() types.Row {
	return types.Row{iv(r.ts), sv(hostNames[r.host]), sv(metricNames[r.metric]), fv(r.value)}
}

// loadMetrics creates the metrics table, loads the first n readings of
// g and merges them.
func loadMetrics(e *core.Engine, g *metricsGen, n int, keep func(reading)) error {
	if _, err := e.CreateTable("metrics", metricsSchema()); err != nil {
		return fmt.Errorf("create metrics: %w", err)
	}
	l := &loader{e: e}
	for i := 0; i < n; i++ {
		r := g.next()
		keep(r)
		l.insert("metrics", r.row())
	}
	l.commit()
	if l.err != nil {
		return fmt.Errorf("load metrics: %w", l.err)
	}
	return mergeAll(e, []string{"metrics"})
}
