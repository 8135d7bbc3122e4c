package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/storage/colstore"
	"repro/internal/txn"
	"repro/internal/types"
)

// TxKind names the five TPC-C transactions.
type TxKind int

// Transaction kinds.
const (
	TxNewOrder TxKind = iota
	TxPayment
	TxOrderStatus
	TxDelivery
	TxStockLevel
)

// String names the kind.
func (k TxKind) String() string {
	switch k {
	case TxNewOrder:
		return "NewOrder"
	case TxPayment:
		return "Payment"
	case TxOrderStatus:
		return "OrderStatus"
	case TxDelivery:
		return "Delivery"
	case TxStockLevel:
		return "StockLevel"
	default:
		return fmt.Sprintf("TxKind(%d)", int(k))
	}
}

// PickTx draws a transaction kind with the TPC-C mix ratios
// (45/43/4/4/4).
func PickTx(rng *rand.Rand) TxKind {
	r := rng.Intn(100)
	switch {
	case r < 45:
		return TxNewOrder
	case r < 88:
		return TxPayment
	case r < 92:
		return TxOrderStatus
	case r < 96:
		return TxDelivery
	default:
		return TxStockLevel
	}
}

// Worker runs the transactional half of the CH workload on an engine.
type Worker struct {
	E     *core.Engine
	Scale Scale
	Rng   *rand.Rand
	// Ctx cancels the worker's scans (a nil Ctx never cancels).
	Ctx context.Context
	// nextHist allocates history primary keys (shared across workers).
	NextHist *atomic.Int64

	// Stats.
	Committed uint64
	Aborted   uint64
}

// RunOne executes one randomly drawn transaction, retrying is the
// caller's choice; conflicts/lock timeouts count as aborts.
func (w *Worker) RunOne() error {
	kind := PickTx(w.Rng)
	var err error
	switch kind {
	case TxNewOrder:
		err = w.NewOrder()
	case TxPayment:
		err = w.Payment()
	case TxOrderStatus:
		err = w.OrderStatus()
	case TxDelivery:
		err = w.Delivery()
	case TxStockLevel:
		err = w.StockLevel()
	}
	if err != nil {
		w.Aborted++
		if isExpected(err) {
			return nil
		}
		return err
	}
	w.Committed++
	return nil
}

// isExpected reports benign concurrency aborts.
func isExpected(err error) bool {
	return errors.Is(err, txn.ErrConflict) || errors.Is(err, core.ErrNotFound) ||
		errors.Is(err, core.ErrDuplicateKey)
}

func (w *Worker) randWD() (int64, int64) {
	return int64(1 + w.Rng.Intn(w.Scale.Warehouses)), int64(1 + w.Rng.Intn(w.Scale.DistrictsPerW))
}

// NewOrder is the TPC-C New-Order transaction: allocate the next order
// id, insert the order, its new-order marker, and 5–15 lines, updating
// stock per line.
func (w *Worker) NewOrder() error {
	wid, did := w.randWD()
	cid := int64(1 + w.Rng.Intn(w.Scale.CustomersPerD))
	tx := w.E.Begin()
	defer func() {
		if tx != nil {
			tx.Abort()
		}
	}()
	dKey := types.Row{iv(wid), iv(did)}
	dRow, ok, err := tx.Get(TDistrict, dKey)
	if err != nil {
		return err
	}
	if !ok {
		return core.ErrNotFound
	}
	oid := dRow[5].I
	dNew := dRow.Clone()
	dNew[5] = iv(oid + 1)
	if err := tx.Update(TDistrict, dKey, dNew); err != nil {
		return err
	}
	olCnt := 5 + w.Rng.Intn(11)
	if err := tx.Insert(TOrders, types.Row{
		iv(wid), iv(did), iv(oid), iv(cid), iv(oid * 1000), iv(0), iv(int64(olCnt)),
	}); err != nil {
		return err
	}
	if err := tx.Insert(TNewOrder, types.Row{iv(wid), iv(did), iv(oid)}); err != nil {
		return err
	}
	for ol := 1; ol <= olCnt; ol++ {
		iid := int64(1 + w.Rng.Intn(w.Scale.Items))
		qty := int64(1 + w.Rng.Intn(10))
		sKey := types.Row{iv(wid), iv(iid)}
		sRow, ok, err := tx.Get(TStock, sKey)
		if err != nil {
			return err
		}
		if !ok {
			return core.ErrNotFound
		}
		sNew := sRow.Clone()
		newQty := sRow[2].I - qty
		if newQty < 10 {
			newQty += 91
		}
		sNew[2] = iv(newQty)
		sNew[3] = iv(sRow[3].I + qty)
		sNew[4] = iv(sRow[4].I + 1)
		if err := tx.Update(TStock, sKey, sNew); err != nil {
			return err
		}
		iRow, ok, err := tx.Get(TItem, types.Row{iv(iid)})
		if err != nil {
			return err
		}
		if !ok {
			return core.ErrNotFound
		}
		amount := float64(qty) * iRow[2].F
		if err := tx.Insert(TOrderLine, types.Row{
			iv(wid), iv(did), iv(oid), iv(int64(ol)), iv(iid), iv(wid), iv(qty), fv(amount), iv(0),
		}); err != nil {
			return err
		}
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	tx = nil
	return nil
}

// Payment updates warehouse/district YTD, the customer balance, and
// appends a history record.
func (w *Worker) Payment() error {
	wid, did := w.randWD()
	cid := int64(1 + w.Rng.Intn(w.Scale.CustomersPerD))
	amount := 1 + w.Rng.Float64()*4999
	tx := w.E.Begin()
	defer func() {
		if tx != nil {
			tx.Abort()
		}
	}()
	wKey := types.Row{iv(wid)}
	wRow, ok, err := tx.Get(TWarehouse, wKey)
	if err != nil || !ok {
		return orNotFound(err, ok)
	}
	wNew := wRow.Clone()
	wNew[4] = fv(wRow[4].F + amount)
	if err := tx.Update(TWarehouse, wKey, wNew); err != nil {
		return err
	}
	dKey := types.Row{iv(wid), iv(did)}
	dRow, ok, err := tx.Get(TDistrict, dKey)
	if err != nil || !ok {
		return orNotFound(err, ok)
	}
	dNew := dRow.Clone()
	dNew[4] = fv(dRow[4].F + amount)
	if err := tx.Update(TDistrict, dKey, dNew); err != nil {
		return err
	}
	cKey := types.Row{iv(wid), iv(did), iv(cid)}
	cRow, ok, err := tx.Get(TCustomer, cKey)
	if err != nil || !ok {
		return orNotFound(err, ok)
	}
	cNew := cRow.Clone()
	cNew[6] = fv(cRow[6].F - amount)
	cNew[7] = fv(cRow[7].F + amount)
	cNew[8] = iv(cRow[8].I + 1)
	if err := tx.Update(TCustomer, cKey, cNew); err != nil {
		return err
	}
	hid := w.NextHist.Add(1)
	if err := tx.Insert(THistory, types.Row{
		iv(hid), iv(wid), iv(did), iv(cid), fv(amount), iv(hid),
	}); err != nil {
		return err
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	tx = nil
	return nil
}

func orNotFound(err error, ok bool) error {
	if err != nil {
		return err
	}
	if !ok {
		return core.ErrNotFound
	}
	return nil
}

// OrderStatus reads a customer's most recent order and its lines.
func (w *Worker) OrderStatus() error {
	wid, did := w.randWD()
	cid := int64(1 + w.Rng.Intn(w.Scale.CustomersPerD))
	tx := w.E.Begin()
	defer tx.Abort()
	if _, ok, err := tx.Get(TCustomer, types.Row{iv(wid), iv(did), iv(cid)}); err != nil || !ok {
		return orNotFound(err, ok)
	}
	// Find the customer's latest order by scanning the district's
	// orders (range scan on the ordered primary key).
	var lastOID int64 = -1
	_, err := tx.ScanCtx(w.Ctx, TOrders, []int{2, 3}, []colstore.Predicate{
		{Col: 0, Op: colstore.OpEq, Val: iv(wid)},
		{Col: 1, Op: colstore.OpEq, Val: iv(did)},
		{Col: 3, Op: colstore.OpEq, Val: iv(cid)},
	}, func(b *types.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			if oid := b.Row(i)[0].I; oid > lastOID {
				lastOID = oid
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if lastOID < 0 {
		return nil // customer with no orders: fine
	}
	// Read its lines.
	_, err = tx.ScanCtx(w.Ctx, TOrderLine, []int{4, 6, 7}, []colstore.Predicate{
		{Col: 0, Op: colstore.OpEq, Val: iv(wid)},
		{Col: 1, Op: colstore.OpEq, Val: iv(did)},
		{Col: 2, Op: colstore.OpEq, Val: iv(lastOID)},
	}, func(b *types.Batch) bool { return true })
	return err
}

// Delivery delivers the oldest undelivered order of a district.
func (w *Worker) Delivery() error {
	wid, did := w.randWD()
	carrier := int64(1 + w.Rng.Intn(10))
	tx := w.E.Begin()
	defer func() {
		if tx != nil {
			tx.Abort()
		}
	}()
	// Oldest new_order for the district.
	var oid int64 = -1
	_, err := tx.ScanCtx(w.Ctx, TNewOrder, []int{2}, []colstore.Predicate{
		{Col: 0, Op: colstore.OpEq, Val: iv(wid)},
		{Col: 1, Op: colstore.OpEq, Val: iv(did)},
	}, func(b *types.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			if o := b.Row(i)[0].I; oid < 0 || o < oid {
				oid = o
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if oid < 0 {
		tx.Abort()
		tx = nil
		return nil // nothing to deliver
	}
	if err := tx.Delete(TNewOrder, types.Row{iv(wid), iv(did), iv(oid)}); err != nil {
		return err
	}
	oKey := types.Row{iv(wid), iv(did), iv(oid)}
	oRow, ok, err := tx.Get(TOrders, oKey)
	if err != nil || !ok {
		return orNotFound(err, ok)
	}
	oNew := oRow.Clone()
	oNew[5] = iv(carrier)
	if err := tx.Update(TOrders, oKey, oNew); err != nil {
		return err
	}
	// Stamp delivery date on the lines and sum amounts.
	var total float64
	var lineKeys []types.Row
	var lineRows []types.Row
	_, err = tx.ScanCtx(w.Ctx, TOrderLine, nil, []colstore.Predicate{
		{Col: 0, Op: colstore.OpEq, Val: iv(wid)},
		{Col: 1, Op: colstore.OpEq, Val: iv(did)},
		{Col: 2, Op: colstore.OpEq, Val: iv(oid)},
	}, func(b *types.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			r := b.Row(i)
			lineKeys = append(lineKeys, types.Row{r[0], r[1], r[2], r[3]})
			lineRows = append(lineRows, r)
			total += r[7].F
		}
		return true
	})
	if err != nil {
		return err
	}
	for i, k := range lineKeys {
		nr := lineRows[i].Clone()
		nr[8] = iv(oid*1000 + 1)
		if err := tx.Update(TOrderLine, k, nr); err != nil {
			return err
		}
	}
	// Credit the customer.
	cKey := types.Row{iv(wid), iv(did), oRow[3]}
	cRow, ok, err := tx.Get(TCustomer, cKey)
	if err != nil || !ok {
		return orNotFound(err, ok)
	}
	cNew := cRow.Clone()
	cNew[6] = fv(cRow[6].F + total)
	if err := tx.Update(TCustomer, cKey, cNew); err != nil {
		return err
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	tx = nil
	return nil
}

// StockLevel counts recent order-line items with stock below a
// threshold (read-only analytic-ish transaction).
func (w *Worker) StockLevel() error {
	wid, did := w.randWD()
	threshold := int64(10 + w.Rng.Intn(11))
	tx := w.E.Begin()
	defer tx.Abort()
	dRow, ok, err := tx.Get(TDistrict, types.Row{iv(wid), iv(did)})
	if err != nil || !ok {
		return orNotFound(err, ok)
	}
	nextO := dRow[5].I
	// Items in the last 20 orders.
	items := map[int64]bool{}
	_, err = tx.ScanCtx(w.Ctx, TOrderLine, []int{2, 4}, []colstore.Predicate{
		{Col: 0, Op: colstore.OpEq, Val: iv(wid)},
		{Col: 1, Op: colstore.OpEq, Val: iv(did)},
		{Col: 2, Op: colstore.OpGe, Val: iv(nextO - 20)},
	}, func(b *types.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			items[b.Row(i)[1].I] = true
		}
		return true
	})
	if err != nil {
		return err
	}
	low := 0
	for iid := range items {
		sRow, ok, err := tx.Get(TStock, types.Row{iv(wid), iv(iid)})
		if err != nil {
			return err
		}
		if ok && sRow[2].I < threshold {
			low++
		}
	}
	return nil
}
