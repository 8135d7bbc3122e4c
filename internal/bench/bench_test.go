package bench

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/types"
)

func loadedEngine(t *testing.T) (*core.Engine, Scale) {
	t.Helper()
	e, err := core.NewEngine(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := CreateTables(e); err != nil {
		t.Fatal(err)
	}
	sc := DefaultScale()
	if err := Load(e, sc, 1); err != nil {
		t.Fatal(err)
	}
	return e, sc
}

func count(t *testing.T, e *core.Engine, table string) int {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	n := 0
	if _, err := tx.ScanCtx(context.Background(), table, nil, nil, func(b *types.Batch) bool {
		n += b.Len()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLoadCardinalities(t *testing.T) {
	e, sc := loadedEngine(t)
	if got := count(t, e, TWarehouse); got != sc.Warehouses {
		t.Fatalf("warehouses = %d", got)
	}
	if got := count(t, e, TDistrict); got != sc.Warehouses*sc.DistrictsPerW {
		t.Fatalf("districts = %d", got)
	}
	if got := count(t, e, TCustomer); got != sc.Warehouses*sc.DistrictsPerW*sc.CustomersPerD {
		t.Fatalf("customers = %d", got)
	}
	if got := count(t, e, TItem); got != sc.Items {
		t.Fatalf("items = %d", got)
	}
	if got := count(t, e, TStock); got != sc.Warehouses*sc.Items {
		t.Fatalf("stock = %d", got)
	}
	if got := count(t, e, TOrders); got != sc.Warehouses*sc.DistrictsPerW*sc.InitialOrdersPerD {
		t.Fatalf("orders = %d", got)
	}
	// Roughly the last third of orders are undelivered.
	undelivered := sc.InitialOrdersPerD - sc.InitialOrdersPerD*2/3
	if got := count(t, e, TNewOrder); got != sc.Warehouses*sc.DistrictsPerW*undelivered {
		t.Fatalf("new_order = %d", got)
	}
	if got := count(t, e, TOrderLine); got < sc.Warehouses*sc.DistrictsPerW*sc.InitialOrdersPerD*5 {
		t.Fatalf("order_line = %d (too few)", got)
	}
}

func TestLoadDeterministic(t *testing.T) {
	e1, _ := loadedEngine(t)
	e2, _ := loadedEngine(t)
	if count(t, e1, TOrderLine) != count(t, e2, TOrderLine) {
		t.Fatal("same seed must produce identical datasets")
	}
}

func newWorker(e *core.Engine, sc Scale, seed int64) *Worker {
	return &Worker{E: e, Scale: sc, Rng: rand.New(rand.NewSource(seed)), Ctx: context.Background(), NextHist: &atomic.Int64{}}
}

func TestTransactionMixRuns(t *testing.T) {
	e, sc := loadedEngine(t)
	w := newWorker(e, sc, 7)
	for i := 0; i < 300; i++ {
		if err := w.RunOne(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if w.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	// The mix should be dominated by NewOrder+Payment commits; aborts
	// in single-threaded mode should be zero.
	if w.Aborted > w.Committed/2 {
		t.Fatalf("aborts %d vs commits %d", w.Aborted, w.Committed)
	}
}

func TestNewOrderGrowsOrders(t *testing.T) {
	e, sc := loadedEngine(t)
	before := count(t, e, TOrders)
	w := newWorker(e, sc, 3)
	ran := 0
	for ran < 10 {
		if err := w.NewOrder(); err == nil {
			ran++
		}
	}
	after := count(t, e, TOrders)
	if after != before+10 {
		t.Fatalf("orders %d -> %d", before, after)
	}
}

func TestPaymentConservesMoneyFlow(t *testing.T) {
	e, sc := loadedEngine(t)
	w := newWorker(e, sc, 5)
	histBefore := count(t, e, THistory)
	for i := 0; i < 10; i++ {
		if err := w.Payment(); err != nil {
			t.Fatal(err)
		}
	}
	if got := count(t, e, THistory); got != histBefore+10 {
		t.Fatalf("history rows = %d", got)
	}
	// Warehouse YTD equals the sum of payment amounts recorded in
	// history (money is conserved between the two tables).
	s := sql.NewSession(e)
	res, err := s.Exec(`SELECT SUM(h_amount) FROM history`)
	if err != nil {
		t.Fatal(err)
	}
	histSum := res.Rows[0][0].F
	res, err = s.Exec(`SELECT SUM(w_ytd) FROM warehouse`)
	if err != nil {
		t.Fatal(err)
	}
	if diff := histSum - res.Rows[0][0].F; diff > 0.001 || diff < -0.001 {
		t.Fatalf("history sum %f != warehouse ytd %f", histSum, res.Rows[0][0].F)
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	e, sc := loadedEngine(t)
	w := newWorker(e, sc, 11)
	before := count(t, e, TNewOrder)
	if before == 0 {
		t.Fatal("loader created no new orders")
	}
	// Delivery picks a random district; drain with a generous attempt
	// budget (coupon-collector over 8 districts).
	delivered := 0
	for i := 0; i < 5000 && count(t, e, TNewOrder) > 0; i++ {
		if err := w.Delivery(); err != nil {
			t.Fatal(err)
		}
		delivered++
	}
	if got := count(t, e, TNewOrder); got != 0 {
		t.Fatalf("new_order not drained: %d left after %d deliveries", got, delivered)
	}
}

func TestAnalyticQueriesRun(t *testing.T) {
	e, _ := loadedEngine(t)
	counts, err := RunAllQueries(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 17 {
		t.Fatalf("ran %d queries", len(counts))
	}
	// Structural expectations.
	if counts[1] == 0 {
		t.Fatal("Q1 should produce per-line-number groups")
	}
	if counts[4] == 0 {
		t.Fatal("Q4 should produce order-size groups")
	}
	if counts[6] != 1 {
		t.Fatalf("Q6 is a single-row aggregate, got %d", counts[6])
	}
	if counts[14] == 0 {
		t.Fatal("Q14 should produce per-state groups")
	}
	if counts[17] == 0 {
		t.Fatal("Q17 should find delivered large orders")
	}
}

func TestQueriesEquivalentAcrossMerge(t *testing.T) {
	// The whole point of the dual-format engine: analytics give the
	// same answers before and after delta-merge.
	e, _ := loadedEngine(t)
	pre := map[int][]types.Row{}
	for _, q := range Queries() {
		rows, err := RunQuery(e, q)
		if err != nil {
			t.Fatal(err)
		}
		pre[q.ID] = rows
	}
	for name := range Schemas() {
		if _, err := e.Merge(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range Queries() {
		rows, err := RunQuery(e, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(pre[q.ID]) {
			t.Fatalf("Q%d rows changed across merge: %d vs %d", q.ID, len(pre[q.ID]), len(rows))
		}
		for i := range rows {
			if !sameAcrossMerge(rows[i], pre[q.ID][i]) {
				t.Fatalf("Q%d row %d changed across merge:\n pre: %v\npost: %v", q.ID, i, pre[q.ID][i], rows[i])
			}
		}
	}
}

// sameAcrossMerge compares two result rows: non-NULL floats to 1e-9
// relative, since a float SUM/AVG depends on the order its parallel
// partials combine in and a merge changes how rows split into morsels;
// NULLs and every other type compare exactly. ROADMAP item 4(a) (float
// aggregates independent of worker count) restores exact equality.
func sameAcrossMerge(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.Null && !y.Null && x.Typ == types.Float64 && y.Typ == types.Float64 {
			if x.F != y.F && math.Abs(x.F-y.F) > 1e-9*math.Max(math.Abs(x.F), math.Abs(y.F)) {
				return false
			}
			continue
		}
		if types.Compare(x, y) != 0 {
			return false
		}
	}
	return true
}

func TestMetricsWorkload(t *testing.T) {
	e, err := core.NewEngine(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := LoadMetrics(e, 2000, 42); err != nil {
		t.Fatal(err)
	}
	if got := count(t, e, "metrics"); got != 2000 {
		t.Fatalf("metrics rows = %d", got)
	}
	// The tutorial's ad-hoc real-time query: per-metric averages.
	s := sql.NewSession(e)
	res, err := s.Exec(`SELECT metric, COUNT(*), AVG(value) FROM metrics GROUP BY metric ORDER BY metric`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("metric groups = %d", len(res.Rows))
	}
}

func TestRetailSurgeDetectable(t *testing.T) {
	g := NewRetailGen(100, 9)
	// 2000 normal events then 2000 surge events.
	normal := map[string]int{}
	surge := map[string]int{}
	for i := 0; i < 2000; i++ {
		r := g.Next(false)
		normal[r[2].S]++
	}
	for i := 0; i < 2000; i++ {
		r := g.Next(true)
		surge[r[2].S]++
	}
	// The surging product's share must jump measurably.
	if surge[g.SurgeProduct] < normal[g.SurgeProduct]+200 {
		t.Fatalf("surge not visible: %d -> %d for %s",
			normal[g.SurgeProduct], surge[g.SurgeProduct], g.SurgeProduct)
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 1.5, 1000)
	counts := map[int64]int{}
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 1 || v > 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Head must dominate.
	if counts[1] < counts[500]*2 {
		t.Fatalf("no skew: c[1]=%d c[500]=%d", counts[1], counts[500])
	}
}

func TestPickTxDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	counts := map[TxKind]int{}
	for i := 0; i < 10000; i++ {
		counts[PickTx(rng)]++
	}
	if counts[TxNewOrder] < 4000 || counts[TxNewOrder] > 5000 {
		t.Fatalf("NewOrder share = %d", counts[TxNewOrder])
	}
	if counts[TxPayment] < 3800 || counts[TxPayment] > 4800 {
		t.Fatalf("Payment share = %d", counts[TxPayment])
	}
	for _, k := range []TxKind{TxOrderStatus, TxDelivery, TxStockLevel} {
		if counts[k] < 200 || counts[k] > 700 {
			t.Fatalf("%v share = %d", k, counts[k])
		}
	}
}

func TestTxKindString(t *testing.T) {
	if TxNewOrder.String() != "NewOrder" || TxStockLevel.String() != "StockLevel" {
		t.Error("TxKind.String")
	}
}
