package tpcc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"batchdb/internal/mvcc"
	"batchdb/internal/oltp"
)

// ErrRollback is the New-Order transaction's intentional 1% rollback
// (unused item number, TPC-C 2.4.1.4). It aborts the transaction but
// counts as a successfully completed business interaction.
var ErrRollback = errors.New("tpcc: new-order rollback (unused item number)")

// Procedure names.
const (
	ProcNewOrder    = "new_order"
	ProcPayment     = "payment"
	ProcOrderStatus = "order_status"
	ProcDelivery    = "delivery"
	ProcStockLevel  = "stock_level"
)

// Procs returns the five TPC-C transactions by name. With constantSize
// set, New-Order also deletes the order that falls out of a
// per-district sliding window (and its order lines and any new_order
// entry), keeping the database size constant — the modification the
// paper makes for the right-hand plots of Fig. 7a.
func Procs(db *DB, constantSize bool) map[string]oltp.Procedure {
	return map[string]oltp.Procedure{
		ProcNewOrder:    db.newOrderProc(constantSize),
		ProcPayment:     db.payment,
		ProcOrderStatus: db.orderStatus,
		ProcDelivery:    db.delivery,
		ProcStockLevel:  db.stockLevel,
	}
}

// RegisterProcs installs Procs(db, constantSize) on the engine.
func RegisterProcs(e *oltp.Engine, db *DB, constantSize bool) {
	for name, p := range Procs(db, constantSize) {
		e.Register(name, p)
	}
}

func (db *DB) newOrderProc(constantSize bool) oltp.Procedure {
	return func(tx *mvcc.Txn, raw []byte) ([]byte, error) {
		a, err := DecodeNewOrderArgs(raw)
		if err != nil {
			return nil, err
		}
		return db.newOrder(tx, a, constantSize)
	}
}

func (db *DB) newOrder(tx *mvcc.Txn, a NewOrderArgs, constantSize bool) ([]byte, error) {
	s := db.Schemas

	wt, ok := tx.Get(db.Warehouse, WarehouseKey(a.WID))
	if !ok {
		return nil, fmt.Errorf("tpcc: warehouse %d missing", a.WID)
	}
	wTax := s.Warehouse.GetFloat64(wt, WTax)

	// Read district tax and allocate the order id while bumping
	// d_next_o_id under the row's write lock.
	var dTax float64
	var oID int64
	if err := tx.Update(db.District, DistrictKey(a.WID, a.DID), []int{DNextOID}, func(tup []byte) {
		dTax = s.District.GetFloat64(tup, DTax)
		oID = s.District.GetInt64(tup, DNextOID)
		s.District.PutInt64(tup, DNextOID, oID+1)
	}); err != nil {
		return nil, err
	}

	ct, ok := tx.Get(db.Customer, CustomerKey(a.WID, a.DID, a.CID))
	if !ok {
		return nil, fmt.Errorf("tpcc: customer %d/%d/%d missing", a.WID, a.DID, a.CID)
	}
	cDiscount := s.Customer.GetFloat64(ct, CDiscount)

	allLocal := int64(1)
	for _, l := range a.Lines {
		if l.SupplyWID != a.WID {
			allLocal = 0
		}
	}

	// Insert the order and its new_order entry.
	ot := s.Order.NewTuple()
	s.Order.PutInt64(ot, OID, oID)
	s.Order.PutInt64(ot, ODID, a.DID)
	s.Order.PutInt64(ot, OWID, a.WID)
	s.Order.PutInt64(ot, OCID, a.CID)
	s.Order.PutInt64(ot, OEntryD, a.EntryD)
	s.Order.PutInt64(ot, OOlCnt, int64(len(a.Lines)))
	s.Order.PutInt64(ot, OAllLocal, allLocal)
	if err := tx.Insert(db.Order, ot); err != nil {
		return nil, err
	}
	nt := s.NewOrder.NewTuple()
	s.NewOrder.PutInt64(nt, NOOID, oID)
	s.NewOrder.PutInt64(nt, NODID, a.DID)
	s.NewOrder.PutInt64(nt, NOWID, a.WID)
	if err := tx.Insert(db.NewOrder, nt); err != nil {
		return nil, err
	}

	total := 0.0
	for i, l := range a.Lines {
		if l.ItemID == 0 {
			// Unused item number: intentional rollback (1%).
			return nil, ErrRollback
		}
		it, ok := tx.Get(db.Item, ItemKey(l.ItemID))
		if !ok {
			return nil, ErrRollback
		}
		price := s.Item.GetFloat64(it, IPrice)

		var distInfo string
		if err := tx.Update(db.Stock, StockKey(l.SupplyWID, l.ItemID),
			[]int{SQuantity, SYtd, SOrderCnt, SRemoteCnt}, func(st []byte) {
				q := s.Stock.GetInt64(st, SQuantity)
				if q >= l.Quantity+10 {
					q -= l.Quantity
				} else {
					q = q - l.Quantity + 91
				}
				s.Stock.PutInt64(st, SQuantity, q)
				s.Stock.PutFloat64(st, SYtd, s.Stock.GetFloat64(st, SYtd)+float64(l.Quantity))
				s.Stock.PutInt64(st, SOrderCnt, s.Stock.GetInt64(st, SOrderCnt)+1)
				if l.SupplyWID != a.WID {
					s.Stock.PutInt64(st, SRemoteCnt, s.Stock.GetInt64(st, SRemoteCnt)+1)
				}
				distInfo = s.Stock.GetString(st, SDist01+int(a.DID-1))
			}); err != nil {
			return nil, err
		}

		amount := float64(l.Quantity) * price
		total += amount
		lt := s.OrderLine.NewTuple()
		s.OrderLine.PutInt64(lt, OLOID, oID)
		s.OrderLine.PutInt64(lt, OLDID, a.DID)
		s.OrderLine.PutInt64(lt, OLWID, a.WID)
		s.OrderLine.PutInt64(lt, OLNumber, int64(i+1))
		s.OrderLine.PutInt64(lt, OLIID, l.ItemID)
		s.OrderLine.PutInt64(lt, OLSupplyWID, l.SupplyWID)
		s.OrderLine.PutInt64(lt, OLQuantity, l.Quantity)
		s.OrderLine.PutFloat64(lt, OLAmount, amount)
		s.OrderLine.PutString(lt, OLDistInfo, distInfo)
		if err := tx.Insert(db.OrderLine, lt); err != nil {
			return nil, err
		}
	}
	total *= (1 - cDiscount) * (1 + wTax + dTax)

	if constantSize {
		if err := db.trimOldOrder(tx, a.WID, a.DID, oID-int64(db.Scale.InitialOrdersPerDistrict)); err != nil {
			return nil, err
		}
	}

	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out, uint64(oID))
	binary.LittleEndian.PutUint64(out[8:], uint64(int64(total*100)))
	return out, nil
}

// trimOldOrder deletes the order that slid out of the constant-size
// window, with its order lines and new_order entry if still present.
func (db *DB) trimOldOrder(tx *mvcc.Txn, w, d, oID int64) error {
	if oID <= 0 {
		return nil
	}
	s := db.Schemas
	ot, ok := tx.Get(db.Order, OrderKey(w, d, oID))
	if !ok {
		return nil // already trimmed (e.g. after recovery overlap)
	}
	olCnt := s.Order.GetInt64(ot, OOlCnt)
	for n := int64(1); n <= olCnt; n++ {
		if err := tx.Delete(db.OrderLine, OrderLineKey(w, d, oID, n)); err != nil && !errors.Is(err, mvcc.ErrNotFound) {
			return err
		}
	}
	if err := tx.Delete(db.Order, OrderKey(w, d, oID)); err != nil {
		return err
	}
	if err := tx.Delete(db.NewOrder, NewOrderKey(w, d, oID)); err != nil && !errors.Is(err, mvcc.ErrNotFound) {
		return err
	}
	return nil
}

// resolveCustomer returns the customer key for a (by id | by last name)
// selection. By-name selection picks the spec's "middle" customer when
// ordered by first name (TPC-C 2.5.2.2).
func (db *DB) resolveCustomer(tx *mvcc.Txn, w, d int64, byName bool, cID int64, cLast string) (uint64, []byte, error) {
	s := db.Schemas.Customer
	if !byName {
		key := CustomerKey(w, d, cID)
		tup, ok := tx.Get(db.Customer, key)
		if !ok {
			return 0, nil, fmt.Errorf("tpcc: customer %d/%d/%d missing", w, d, cID)
		}
		return key, tup, nil
	}
	lo, hi := CustomerNamePrefix(w, d, cLast)
	type cand struct {
		key   uint64
		first string
		tup   []byte
	}
	var cands []cand
	for it := db.CustByName.Seek(lo); it.Valid() && it.Key() < hi; it.Next() {
		rec := tx.ReadChain(it.Value())
		if rec == nil {
			continue
		}
		if s.GetString(rec.Data, CLast) != cLast {
			continue // 16-bit hash collision or stale entry
		}
		cands = append(cands, cand{
			key:   CustomerKey(w, d, s.GetInt64(rec.Data, CID)),
			first: s.GetString(rec.Data, CFirst),
			tup:   rec.Data,
		})
	}
	if len(cands) == 0 {
		return 0, nil, fmt.Errorf("tpcc: no customer with last name %q in %d/%d", cLast, w, d)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].first < cands[j].first })
	pick := cands[len(cands)/2]
	return pick.key, pick.tup, nil
}

func (db *DB) payment(tx *mvcc.Txn, raw []byte) ([]byte, error) {
	a, err := DecodePaymentArgs(raw)
	if err != nil {
		return nil, err
	}
	s := db.Schemas

	if err := tx.Update(db.Warehouse, WarehouseKey(a.WID), []int{WYtd}, func(t []byte) {
		s.Warehouse.PutFloat64(t, WYtd, s.Warehouse.GetFloat64(t, WYtd)+a.Amount)
	}); err != nil {
		return nil, err
	}
	if err := tx.Update(db.District, DistrictKey(a.WID, a.DID), []int{DYtd}, func(t []byte) {
		s.District.PutFloat64(t, DYtd, s.District.GetFloat64(t, DYtd)+a.Amount)
	}); err != nil {
		return nil, err
	}

	cKey, cTup, err := db.resolveCustomer(tx, a.CWID, a.CDID, a.ByName, a.CID, a.CLast)
	if err != nil {
		return nil, err
	}
	cID := s.Customer.GetInt64(cTup, CID)
	badCredit := s.Customer.GetString(cTup, CCredit) == "BC"
	var paymentCnt int64
	cols := []int{CBalance, CYtdPayment, CPaymentCnt}
	if badCredit {
		cols = append(cols, CData)
	}
	if err := tx.Update(db.Customer, cKey, cols, func(t []byte) {
		s.Customer.PutFloat64(t, CBalance, s.Customer.GetFloat64(t, CBalance)-a.Amount)
		s.Customer.PutFloat64(t, CYtdPayment, s.Customer.GetFloat64(t, CYtdPayment)+a.Amount)
		paymentCnt = s.Customer.GetInt64(t, CPaymentCnt) + 1
		s.Customer.PutInt64(t, CPaymentCnt, paymentCnt)
		if badCredit {
			// Prepend the payment record to c_data (truncated to width).
			info := fmt.Sprintf("%d %d %d %d %d %.2f|", cID, a.CDID, a.CWID, a.DID, a.WID, a.Amount)
			old := s.Customer.GetString(t, CData)
			s.Customer.PutString(t, CData, info+old)
		}
	}); err != nil {
		return nil, err
	}

	ht := s.History.NewTuple()
	s.History.PutInt64(ht, HPK, int64(HistoryKey(a.CWID, a.CDID, cID, paymentCnt)))
	s.History.PutInt64(ht, HCID, cID)
	s.History.PutInt64(ht, HCDID, a.CDID)
	s.History.PutInt64(ht, HCWID, a.CWID)
	s.History.PutInt64(ht, HDID, a.DID)
	s.History.PutInt64(ht, HWID, a.WID)
	s.History.PutInt64(ht, HDate, a.Date)
	s.History.PutFloat64(ht, HAmount, a.Amount)
	s.History.PutString(ht, HData, "payment")
	if err := tx.Insert(db.History, ht); err != nil {
		return nil, err
	}
	return nil, nil
}

func (db *DB) orderStatus(tx *mvcc.Txn, raw []byte) ([]byte, error) {
	a, err := DecodeOrderStatusArgs(raw)
	if err != nil {
		return nil, err
	}
	s := db.Schemas
	_, cTup, err := db.resolveCustomer(tx, a.WID, a.DID, a.ByName, a.CID, a.CLast)
	if err != nil {
		return nil, err
	}
	cID := s.Customer.GetInt64(cTup, CID)

	// Most recent order: walk the customer's order range and keep the
	// largest o_id whose row is visible.
	lo, hi := OrderCustomerPrefix(a.WID, a.DID, cID)
	var lastOrder []byte
	var lastOID int64 = -1
	for it := db.OrdByCust.Seek(lo); it.Valid() && it.Key() < hi; it.Next() {
		rec := tx.ReadChain(it.Value())
		if rec == nil || s.Order.GetInt64(rec.Data, OCID) != cID {
			continue
		}
		if o := s.Order.GetInt64(rec.Data, OID); o > lastOID {
			lastOID = o
			lastOrder = rec.Data
		}
	}
	if lastOrder == nil {
		// A customer may have no surviving order under constant-size
		// trimming; report empty status.
		return []byte{0}, nil
	}
	olCnt := s.Order.GetInt64(lastOrder, OOlCnt)
	lines := 0
	for n := int64(1); n <= olCnt; n++ {
		if _, ok := tx.Get(db.OrderLine, OrderLineKey(a.WID, a.DID, lastOID, n)); ok {
			lines++
		}
	}
	out := make([]byte, 9)
	out[0] = 1
	binary.LittleEndian.PutUint64(out[1:], uint64(lines))
	return out, nil
}

func (db *DB) delivery(tx *mvcc.Txn, raw []byte) ([]byte, error) {
	a, err := DecodeDeliveryArgs(raw)
	if err != nil {
		return nil, err
	}
	s := db.Schemas
	delivered := int64(0)
	for d := int64(1); d <= int64(db.Scale.DistrictsPerWarehouse); d++ {
		// Oldest undelivered order of the district.
		lo, hi := NewOrderDistrictPrefix(a.WID, d)
		var oID int64 = -1
		for it := db.NOByDist.Seek(lo); it.Valid() && it.Key() < hi; it.Next() {
			rec := tx.ReadChain(it.Value())
			if rec == nil {
				continue
			}
			oID = s.NewOrder.GetInt64(rec.Data, NOOID)
			break
		}
		if oID < 0 {
			continue // district fully delivered
		}
		if err := tx.Delete(db.NewOrder, NewOrderKey(a.WID, d, oID)); err != nil {
			if errors.Is(err, mvcc.ErrNotFound) {
				continue // raced with another delivery
			}
			return nil, err
		}

		var cID, olCnt int64
		if err := tx.Update(db.Order, OrderKey(a.WID, d, oID), []int{OCarrierID}, func(t []byte) {
			cID = s.Order.GetInt64(t, OCID)
			olCnt = s.Order.GetInt64(t, OOlCnt)
			s.Order.PutInt64(t, OCarrierID, a.CarrierID)
		}); err != nil {
			return nil, err
		}
		sum := 0.0
		for n := int64(1); n <= olCnt; n++ {
			if err := tx.Update(db.OrderLine, OrderLineKey(a.WID, d, oID, n), []int{OLDeliveryD}, func(t []byte) {
				sum += s.OrderLine.GetFloat64(t, OLAmount)
				s.OrderLine.PutInt64(t, OLDeliveryD, a.Date)
			}); err != nil {
				return nil, err
			}
		}
		if err := tx.Update(db.Customer, CustomerKey(a.WID, d, cID), []int{CBalance, CDeliveryCnt}, func(t []byte) {
			s.Customer.PutFloat64(t, CBalance, s.Customer.GetFloat64(t, CBalance)+sum)
			s.Customer.PutInt64(t, CDeliveryCnt, s.Customer.GetInt64(t, CDeliveryCnt)+1)
		}); err != nil {
			return nil, err
		}
		delivered++
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(delivered))
	return out, nil
}

func (db *DB) stockLevel(tx *mvcc.Txn, raw []byte) ([]byte, error) {
	a, err := DecodeStockLevelArgs(raw)
	if err != nil {
		return nil, err
	}
	s := db.Schemas
	dt, ok := tx.Get(db.District, DistrictKey(a.WID, a.DID))
	if !ok {
		return nil, fmt.Errorf("tpcc: district %d/%d missing", a.WID, a.DID)
	}
	nextO := s.District.GetInt64(dt, DNextOID)
	seen := make(map[int64]bool)
	low := int64(0)
	from := nextO - 20
	if from < 1 {
		from = 1
	}
	for o := from; o < nextO; o++ {
		ot, ok := tx.Get(db.Order, OrderKey(a.WID, a.DID, o))
		if !ok {
			continue
		}
		olCnt := s.Order.GetInt64(ot, OOlCnt)
		for n := int64(1); n <= olCnt; n++ {
			lt, ok := tx.Get(db.OrderLine, OrderLineKey(a.WID, a.DID, o, n))
			if !ok {
				continue
			}
			iID := s.OrderLine.GetInt64(lt, OLIID)
			if seen[iID] {
				continue
			}
			seen[iID] = true
			st, ok := tx.Get(db.Stock, StockKey(a.WID, iID))
			if ok && s.Stock.GetInt64(st, SQuantity) < a.Threshold {
				low++
			}
		}
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(low))
	return out, nil
}
