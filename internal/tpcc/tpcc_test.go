package tpcc

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"batchdb/internal/mvcc"
	"batchdb/internal/oltp"
	"batchdb/internal/wal"
)

func newLoadedDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(SmallScale(2))
	if err := Generate(db, 42); err != nil {
		t.Fatal(err)
	}
	return db
}

func newEngine(t *testing.T, db *DB, constantSize bool) *oltp.Engine {
	t.Helper()
	e, err := oltp.New(db.Store, oltp.Config{Workers: 2, PushPeriod: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	RegisterProcs(e, db, constantSize)
	e.Start()
	t.Cleanup(func() { e.Close() })
	return e
}

func TestGenerateCardinalities(t *testing.T) {
	db := newLoadedDB(t)
	sc := db.Scale
	ro := db.Store.BeginRO()
	defer ro.Release()

	counts := map[string]struct {
		tbl  interface{ NumChains() int }
		want int
	}{
		"warehouse": {db.Warehouse, sc.Warehouses},
		"district":  {db.District, sc.Warehouses * sc.DistrictsPerWarehouse},
		"customer":  {db.Customer, sc.Warehouses * sc.DistrictsPerWarehouse * sc.CustomersPerDistrict},
		"item":      {db.Item, sc.Items},
		"stock":     {db.Stock, sc.Warehouses * sc.Items},
		"order":     {db.Order, sc.Warehouses * sc.DistrictsPerWarehouse * sc.InitialOrdersPerDistrict},
		"new_order": {db.NewOrder, sc.Warehouses * sc.DistrictsPerWarehouse * sc.UndeliveredOrders},
		"supplier":  {db.Supplier, NumSuppliers},
		"nation":    {db.Nation, NumNations},
		"region":    {db.Region, NumRegions},
	}
	for name, c := range counts {
		if got := c.tbl.NumChains(); got != c.want {
			t.Errorf("%s count = %d, want %d", name, got, c.want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := NewDB(SmallScale(1))
	b := NewDB(SmallScale(1))
	if err := Generate(a, 7); err != nil {
		t.Fatal(err)
	}
	if err := Generate(b, 7); err != nil {
		t.Fatal(err)
	}
	// Compare a sample of rows byte-for-byte.
	roA, roB := a.Store.BeginRO(), b.Store.BeginRO()
	defer roA.Release()
	defer roB.Release()
	for c := int64(1); c <= 10; c++ {
		ta, _ := roA.Get(a.Customer, CustomerKey(1, 1, c))
		tb, _ := roB.Get(b.Customer, CustomerKey(1, 1, c))
		if string(ta) != string(tb) {
			t.Fatalf("customer %d differs across identical seeds", c)
		}
	}
}

// checkConsistency verifies core TPC-C consistency conditions.
func checkConsistency(t *testing.T, db *DB, constantSize bool) {
	t.Helper()
	s := db.Schemas
	ro := db.Store.BeginRO()
	defer ro.Release()

	for w := int64(1); w <= int64(db.Scale.Warehouses); w++ {
		wt, ok := ro.Get(db.Warehouse, WarehouseKey(w))
		if !ok {
			t.Fatalf("warehouse %d missing", w)
		}
		wYtd := s.Warehouse.GetFloat64(wt, WYtd)
		var dSum float64
		for d := int64(1); d <= int64(db.Scale.DistrictsPerWarehouse); d++ {
			dt, ok := ro.Get(db.District, DistrictKey(w, d))
			if !ok {
				t.Fatalf("district %d/%d missing", w, d)
			}
			dSum += s.District.GetFloat64(dt, DYtd)

			// Consistency 1: d_next_o_id - 1 = max(o_id) = max(no_o_id).
			nextO := s.District.GetInt64(dt, DNextOID)
			if _, ok := ro.Get(db.Order, OrderKey(w, d, nextO)); ok {
				t.Errorf("order %d exists beyond d_next_o_id %d", nextO, nextO)
			}
			if !constantSize {
				if _, ok := ro.Get(db.Order, OrderKey(w, d, nextO-1)); !ok {
					t.Errorf("order %d/%d/%d (d_next_o_id-1) missing", w, d, nextO-1)
				}
			}

			// Consistency 3: every new_order's order exists, undelivered.
			lo, hi := NewOrderDistrictPrefix(w, d)
			for it := db.NOByDist.Seek(lo); it.Valid() && it.Key() < hi; it.Next() {
				rec := ro.ReadChain(it.Value())
				if rec == nil {
					continue
				}
				oID := s.NewOrder.GetInt64(rec.Data, NOOID)
				ot, ok := ro.Get(db.Order, OrderKey(w, d, oID))
				if !ok {
					t.Errorf("new_order %d/%d/%d has no order", w, d, oID)
					continue
				}
				if s.Order.GetInt64(ot, OCarrierID) != 0 {
					t.Errorf("new_order %d/%d/%d already delivered", w, d, oID)
				}
			}
		}
		// Consistency: scaled initial district YTD is 1/10 of spec, so
		// compare sums directly.
		initial := 300000.0
		initialD := 30000.0 * float64(db.Scale.DistrictsPerWarehouse)
		if math.Abs((wYtd-initial)-(dSum-initialD)) > 0.01 {
			t.Errorf("warehouse %d YTD delta %.2f != district sum delta %.2f",
				w, wYtd-initial, dSum-initialD)
		}
	}
}

func TestMixedWorkloadConsistency(t *testing.T) {
	db := newLoadedDB(t)
	e := newEngine(t, db, false)
	drv := NewDriver(db.Scale, 99)

	committed, rollbacks := 0, 0
	for i := 0; i < 800; i++ {
		proc, args := drv.Next()
		for {
			r := e.Exec(proc, args)
			if r.Err == nil {
				committed++
				break
			}
			if errors.Is(r.Err, ErrRollback) {
				rollbacks++
				break
			}
			if errors.Is(r.Err, mvcc.ErrConflict) {
				continue // retry
			}
			t.Fatalf("%s failed: %v", proc, r.Err)
		}
	}
	if committed < 700 {
		t.Fatalf("only %d committed", committed)
	}
	checkConsistency(t, db, false)
}

func TestMixedWorkloadConcurrentClients(t *testing.T) {
	db := newLoadedDB(t)
	e := newEngine(t, db, false)

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			drv := NewDriver(db.Scale, seed)
			for i := 0; i < 200; i++ {
				proc, args := drv.Next()
				for {
					r := e.Exec(proc, args)
					if r.Err == nil || errors.Is(r.Err, ErrRollback) {
						break
					}
					if !errors.Is(r.Err, mvcc.ErrConflict) {
						t.Errorf("%s failed: %v", proc, r.Err)
						return
					}
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()
	checkConsistency(t, db, false)
}

func TestConstantSizeKeepsOrderCount(t *testing.T) {
	db := newLoadedDB(t)
	e := newEngine(t, db, true)
	drv := NewDriver(db.Scale, 5)

	before := countVisible(t, db, db.Order)
	for i := 0; i < 300; i++ {
		args := drv.NewOrder().Encode()
		for {
			r := e.Exec(ProcNewOrder, args)
			if r.Err == nil || errors.Is(r.Err, ErrRollback) {
				break
			}
			if !errors.Is(r.Err, mvcc.ErrConflict) {
				t.Fatalf("new_order: %v", r.Err)
			}
		}
	}
	after := countVisible(t, db, db.Order)
	// The window keeps per-district order counts constant; rollbacks
	// consume an order id without inserting, so the count may dip
	// slightly below the initial value but must never grow.
	if after > before {
		t.Fatalf("constant-size DB grew: %d -> %d orders", before, after)
	}
	if after < before-before/10 {
		t.Fatalf("constant-size DB shrank too much: %d -> %d", before, after)
	}
	checkConsistency(t, db, true)
}

func countVisible(t *testing.T, db *DB, tbl *mvcc.Table) int {
	t.Helper()
	ro := db.Store.BeginRO()
	defer ro.Release()
	n := 0
	tbl.Scan(ro, func(uint64, []byte) bool {
		n++
		return true
	})
	return n
}

func TestNewOrderRollbackLeavesNoTrace(t *testing.T) {
	db := newLoadedDB(t)
	e := newEngine(t, db, false)

	ordersBefore := countVisible(t, db, db.Order)
	a := NewDriver(db.Scale, 3).NewOrder()
	a.Lines[len(a.Lines)-1].ItemID = 0 // force rollback
	r := e.Exec(ProcNewOrder, a.Encode())
	if !errors.Is(r.Err, ErrRollback) {
		t.Fatalf("err = %v, want ErrRollback", r.Err)
	}
	if got := countVisible(t, db, db.Order); got != ordersBefore {
		t.Fatalf("rolled-back order visible: %d -> %d", ordersBefore, got)
	}
	// The district's next_o_id must also be unchanged (rollback undoes
	// the increment).
	checkConsistency(t, db, false)
}

func TestPaymentByName(t *testing.T) {
	db := newLoadedDB(t)
	e := newEngine(t, db, false)
	// Customer 1 of district 1/1 has the deterministic name BARBARBAR.
	a := &PaymentArgs{
		WID: 1, DID: 1, CWID: 1, CDID: 1,
		ByName: true, CLast: LastName(0),
		Amount: 100, Date: time.Now().UnixNano(),
	}
	if r := e.Exec(ProcPayment, a.Encode()); r.Err != nil {
		t.Fatalf("payment by name: %v", r.Err)
	}
	// The paid customer carries the name and an incremented counter.
	ro := db.Store.BeginRO()
	defer ro.Release()
	s := db.Schemas.Customer
	found := false
	db.Customer.Scan(ro, func(_ uint64, tup []byte) bool {
		if s.GetString(tup, CLast) == LastName(0) &&
			s.GetInt64(tup, CWID) == 1 && s.GetInt64(tup, CDID) == 1 &&
			s.GetInt64(tup, CPaymentCnt) > 1 {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no customer with last name shows the payment")
	}
}

func TestDeliveryDeliversOldest(t *testing.T) {
	db := newLoadedDB(t)
	e := newEngine(t, db, false)
	s := db.Schemas

	// Oldest undelivered order in district 1/1 before delivery.
	ro := db.Store.BeginRO()
	lo, hi := NewOrderDistrictPrefix(1, 1)
	var oldest int64 = -1
	for it := db.NOByDist.Seek(lo); it.Valid() && it.Key() < hi; it.Next() {
		if rec := ro.ReadChain(it.Value()); rec != nil {
			oldest = s.NewOrder.GetInt64(rec.Data, NOOID)
			break
		}
	}
	ro.Release()
	if oldest < 0 {
		t.Fatal("no undelivered orders in fixture")
	}

	a := &DeliveryArgs{WID: 1, CarrierID: 7, Date: time.Now().UnixNano()}
	r := e.Exec(ProcDelivery, a.Encode())
	if r.Err != nil {
		t.Fatalf("delivery: %v", r.Err)
	}

	ro2 := db.Store.BeginRO()
	defer ro2.Release()
	if _, ok := ro2.Get(db.NewOrder, NewOrderKey(1, 1, oldest)); ok {
		t.Fatal("delivered new_order entry still present")
	}
	ot, ok := ro2.Get(db.Order, OrderKey(1, 1, oldest))
	if !ok || s.Order.GetInt64(ot, OCarrierID) != 7 {
		t.Fatal("order carrier not set by delivery")
	}
	// Its order lines carry the delivery date.
	olCnt := s.Order.GetInt64(ot, OOlCnt)
	for n := int64(1); n <= olCnt; n++ {
		lt, ok := ro2.Get(db.OrderLine, OrderLineKey(1, 1, oldest, n))
		if !ok || s.OrderLine.GetInt64(lt, OLDeliveryD) == 0 {
			t.Fatalf("order line %d not delivered", n)
		}
	}
}

func TestOrderStatusAndStockLevel(t *testing.T) {
	db := newLoadedDB(t)
	e := newEngine(t, db, false)
	os := &OrderStatusArgs{WID: 1, DID: 1, CID: 1}
	if r := e.Exec(ProcOrderStatus, os.Encode()); r.Err != nil {
		t.Fatalf("order status: %v", r.Err)
	}
	sl := &StockLevelArgs{WID: 1, DID: 1, Threshold: 20}
	r := e.Exec(ProcStockLevel, sl.Encode())
	if r.Err != nil {
		t.Fatalf("stock level: %v", r.Err)
	}
	if len(r.Payload) != 8 {
		t.Fatalf("stock level payload %v", r.Payload)
	}
}

func TestRecoveryReproducesState(t *testing.T) {
	dir := t.TempDir()

	db := NewDB(SmallScale(1))
	if err := Generate(db, 11); err != nil {
		t.Fatal(err)
	}
	e, err := oltp.New(db.Store, oltp.Config{Workers: 2, PushPeriod: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.OpenDir(dir, wal.DirOptions{StartVID: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.SetLog(log)
	RegisterProcs(e, db, false)
	e.Start()
	drv := NewDriver(db.Scale, 77)
	for i := 0; i < 300; i++ {
		proc, args := drv.Next()
		for {
			r := e.Exec(proc, args)
			if r.Err == nil || errors.Is(r.Err, ErrRollback) {
				break
			}
			if !errors.Is(r.Err, mvcc.ErrConflict) {
				t.Fatalf("%s: %v", proc, r.Err)
			}
		}
	}
	finalVID := e.LatestVID()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh DB: same generation seed, then replay.
	db2 := NewDB(SmallScale(1))
	if err := Generate(db2, 11); err != nil {
		t.Fatal(err)
	}
	e2, err := oltp.New(db2.Store, oltp.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	RegisterProcs(e2, db2, false)
	n, err := wal.ReplayDir(dir, 0, func(r wal.Record) error { return oltp.ReplayRecord(e2, r) })
	if err != nil {
		t.Fatalf("recovery failed after %d commands: %v", n, err)
	}
	if got := db2.Store.VIDs.Watermark(); got != finalVID {
		t.Fatalf("recovered watermark %d, want %d", got, finalVID)
	}

	// Compare district rows (the hottest table) byte-for-byte.
	roA, roB := db.Store.BeginRO(), db2.Store.BeginRO()
	defer roA.Release()
	defer roB.Release()
	for d := int64(1); d <= int64(db.Scale.DistrictsPerWarehouse); d++ {
		ta, _ := roA.Get(db.District, DistrictKey(1, d))
		tb, _ := roB.Get(db2.District, DistrictKey(1, d))
		if string(ta) != string(tb) {
			t.Fatalf("district %d diverged after recovery", d)
		}
	}
	checkConsistency(t, db2, false)
}
