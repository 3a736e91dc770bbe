package chbench

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"batchdb/internal/baseline"
	"batchdb/internal/mvcc"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/storage"
	"batchdb/internal/tpcc"
)

func fixture(t *testing.T) (*tpcc.DB, *olap.Replica, *exec.Engine) {
	t.Helper()
	db := tpcc.NewDB(tpcc.SmallScale(2))
	if err := tpcc.Generate(db, 21); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	return db, rep, exec.NewEngine(rep, 2)
}

func TestReplicaBootstrapCounts(t *testing.T) {
	db, rep, _ := fixture(t)
	sc := db.Scale
	if got := rep.Table(tpcc.TStock).Live(); got != sc.Warehouses*sc.Items {
		t.Errorf("stock rows = %d", got)
	}
	if got := rep.Table(tpcc.TOrder).Live(); got != sc.Warehouses*sc.DistrictsPerWarehouse*sc.InitialOrdersPerDistrict {
		t.Errorf("order rows = %d", got)
	}
	if got := rep.Table(tpcc.TNation).Live(); got != tpcc.NumNations {
		t.Errorf("nation rows = %d", got)
	}
}

// Every query must execute without error and produce a finite result;
// scan-heavy queries must see plausible row counts.
func TestAllQueriesRun(t *testing.T) {
	_, _, eng := fixture(t)
	g := NewGen(tpcc.NewSchemas(), 3)
	for _, name := range QueryNames {
		q := g.ByName(name)
		res := eng.RunBatch([]*exec.Query{q}, 0)
		if res[0].Err != nil {
			t.Errorf("%s: %v", name, res[0].Err)
			continue
		}
		for i, v := range res[0].Values {
			if v != v || v < 0 {
				t.Errorf("%s agg %d = %f", name, i, v)
			}
		}
	}
}

// Q10 (pure scan, date filter over everything) must equal a hand
// computation over the replica.
func TestQ10MatchesHandComputation(t *testing.T) {
	db, rep, eng := fixture(t)
	g := NewGen(db.Schemas, 5)
	q := g.ByName("Q10")
	res := eng.RunBatch([]*exec.Query{q}, 0)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	// Recompute by hand: Q10 is the order lines delivered on or after
	// its date.
	date := q.Where[0].Lo
	var want float64
	ols := db.Schemas.OrderLine
	for _, p := range rep.Table(tpcc.TOrderLine).Partitions {
		eachLive(p, func(tup []byte) {
			if ols.GetInt64(tup, tpcc.OLDeliveryD) >= date {
				want += ols.GetFloat64(tup, tpcc.OLAmount)
			}
		})
	}
	if d := res[0].Values[0] - want; d > 1e-3 || d < -1e-3 {
		t.Fatalf("Q10 = %f, want %f", res[0].Values[0], want)
	}
	if res[0].Rows == 0 {
		t.Fatal("Q10 matched no rows; date domain broken")
	}
}

// Q3's nation filter must partition the total: summing over all nations
// equals the unfiltered join total.
func TestQ3PartitionsByNation(t *testing.T) {
	db, rep, eng := fixture(t)
	g := NewGen(db.Schemas, 5)
	// Unfiltered total: order lines joined to orders and customer
	// (every line has both).
	total := 0.0
	ols := db.Schemas.OrderLine
	for _, p := range rep.Table(tpcc.TOrderLine).Partitions {
		eachLive(p, func(tup []byte) {
			total += ols.GetFloat64(tup, tpcc.OLAmount)
		})
	}
	var sum float64
	var queries []*exec.Query
	for n := 0; n < tpcc.NumNations; n++ {
		q := g.ByName("Q3")
		// Rebind the nation predicate deterministically.
		q.Probes[2].Where = []exec.Pred{exec.EqualStr(tpcc.NName, nationName(n))}
		queries = append(queries, q)
	}
	results := eng.RunBatch(queries, 0)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		sum += r.Values[0]
	}
	if diff := sum - total; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sum over nations %f != total %f", sum, total)
	}
}

func nationName(n int) string {
	g := tpcc.NewSchemas()
	_ = g
	if n < 10 {
		return "NATION_0" + string(rune('0'+n))
	}
	return "NATION_" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// End to end: hybrid pipeline — TPC-C updates flow to the replica and
// change analytical results.
func TestHybridFreshness(t *testing.T) {
	db, rep, eng := fixture(t)
	e, err := oltp.New(db.Store, oltp.Config{
		Workers: 2, PushPeriod: time.Hour,
		Replicated:    tpcc.ReplicatedTables(),
		FieldSpecific: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tpcc.RegisterProcs(e, db, false)
	e.SetSink(rep)
	e.Start()
	defer e.Close()

	g := NewGen(db.Schemas, 9)
	q := g.ByName("Q10")
	before := eng.RunBatch([]*exec.Query{q}, 0)[0]

	// Push new orders through and deliver them so Q10's delivery-date
	// filter sees them.
	drv := tpcc.NewDriver(db.Scale, 17)
	for i := 0; i < 50; i++ {
		a := drv.NewOrder()
		for {
			r := e.Exec(tpcc.ProcNewOrder, a.Encode())
			if r.Err == nil || errors.Is(r.Err, tpcc.ErrRollback) {
				break
			}
			if !errors.Is(r.Err, mvcc.ErrConflict) {
				t.Fatal(r.Err)
			}
		}
	}
	for w := int64(1); w <= int64(db.Scale.Warehouses); w++ {
		for i := 0; i < 30; i++ {
			d := &tpcc.DeliveryArgs{WID: w, CarrierID: 1, Date: time.Now().UnixNano()}
			r := e.Exec(tpcc.ProcDelivery, d.Encode())
			if r.Err != nil && !errors.Is(r.Err, mvcc.ErrConflict) {
				t.Fatal(r.Err)
			}
		}
	}
	covered := e.SyncUpdates()
	if _, err := rep.ApplyPending(covered); err != nil {
		t.Fatal(err)
	}
	after := eng.RunBatch([]*exec.Query{q}, 0)[0]
	if after.Values[0] <= before.Values[0] {
		t.Fatalf("Q10 did not grow with fresh deliveries: %f -> %f", before.Values[0], after.Values[0])
	}
}

// Full-stack scheduler test: analytical queries via the OLAP dispatcher
// against a live OLTP feed.
func TestSchedulerEndToEnd(t *testing.T) {
	db, rep, eng := fixture(t)
	e, err := oltp.New(db.Store, oltp.Config{
		Workers: 2, PushPeriod: 50 * time.Millisecond,
		Replicated: tpcc.ReplicatedTables(), FieldSpecific: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tpcc.RegisterProcs(e, db, false)
	e.SetSink(rep)
	e.Start()
	defer e.Close()

	sched := olap.NewScheduler(rep, e, eng.RunBatch)
	sched.Start()
	defer sched.Close()

	g := NewGen(db.Schemas, 33)
	drv := tpcc.NewDriver(db.Scale, 44)
	for i := 0; i < 100; i++ {
		proc, args := drv.Next()
		r := e.Exec(proc, args)
		if r.Err != nil && !errors.Is(r.Err, tpcc.ErrRollback) && !errors.Is(r.Err, mvcc.ErrConflict) {
			t.Fatal(r.Err)
		}
	}
	for i := 0; i < 5; i++ {
		res, err := sched.Query(g.Next())
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Query.Name, res.Err)
		}
	}
	if rep.AppliedVID() == 0 {
		t.Fatal("scheduler never applied updates")
	}
}

// TestProbeKeysPackLikeTPCC holds every probe builder's declared key to
// the tpcc key function of the table it probes: over random rows of the
// table the key is read from, the key the declaration packs (as
// internal/baseline evaluates it; the engine's kernels are held to that
// evaluator by exec's kernel test) is the one the function packs.
func TestProbeKeysPackLikeTPCC(t *testing.T) {
	s := tpcc.NewSchemas()
	i64 := func(sc *storage.Schema, tup []byte, c int) int64 { return sc.GetInt64(tup, c) }
	// The CH-benCHmark's stock->supplier relationship:
	// su_suppkey = (s_w_id * s_i_id) mod 10000.
	supplierOf := func(w, i int64) int64 { return (w * i) % tpcc.NumSuppliers }
	cases := []struct {
		name string
		pb   exec.Probe
		from *storage.Schema
		want func(tup []byte) uint64
	}{
		{"order of a line", ordersFromOrderLine(), s.OrderLine, func(tup []byte) uint64 {
			return tpcc.OrderKey(i64(s.OrderLine, tup, tpcc.OLWID), i64(s.OrderLine, tup, tpcc.OLDID), i64(s.OrderLine, tup, tpcc.OLOID))
		}},
		{"customer of an order", customerFromOrder(0), s.Order, func(tup []byte) uint64 {
			return tpcc.CustomerKey(i64(s.Order, tup, tpcc.OWID), i64(s.Order, tup, tpcc.ODID), i64(s.Order, tup, tpcc.OCID))
		}},
		{"item of a line", itemProbe(tpcc.OLIID), s.OrderLine, func(tup []byte) uint64 {
			return tpcc.ItemKey(i64(s.OrderLine, tup, tpcc.OLIID))
		}},
		{"item of a stock row", itemProbe(tpcc.SIID), s.Stock, func(tup []byte) uint64 {
			return tpcc.ItemKey(i64(s.Stock, tup, tpcc.SIID))
		}},
		{"supplier of a line", supplierOfOrderLine(), s.OrderLine, func(tup []byte) uint64 {
			return tpcc.SupplierKey(supplierOf(i64(s.OrderLine, tup, tpcc.OLSupplyWID), i64(s.OrderLine, tup, tpcc.OLIID)))
		}},
		{"supplier of a stock row", supplierOfStock(), s.Stock, func(tup []byte) uint64 {
			return tpcc.SupplierKey(supplierOf(i64(s.Stock, tup, tpcc.SWID), i64(s.Stock, tup, tpcc.SIID)))
		}},
		{"nation of a customer", nationOf(0, tpcc.CNationKey), s.Customer, func(tup []byte) uint64 {
			return tpcc.NationKey(i64(s.Customer, tup, tpcc.CNationKey))
		}},
		{"nation of a supplier", nationOf(0, tpcc.SUNationKey), s.Supplier, func(tup []byte) uint64 {
			return tpcc.NationKey(i64(s.Supplier, tup, tpcc.SUNationKey))
		}},
		{"region of a nation", regionOfNation(0), s.Nation, func(tup []byte) uint64 {
			return tpcc.RegionKey(i64(s.Nation, tup, tpcc.NRegionKey))
		}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		for i := 0; i < 256; i++ {
			tup := tc.from.NewTuple()
			for c, col := range tc.from.Columns {
				if col.Type == storage.Int64 {
					tc.from.PutInt64(tup, c, rng.Int63n(1<<(4+rng.Intn(28))))
				}
			}
			if got, want := baseline.KeyOf(tc.from, tc.pb.Key, tup), tc.want(tup); got != want {
				t.Fatalf("%s: declared key %#x, tpcc packs %#x", tc.name, got, want)
			}
		}
	}
}

// eachLive calls fn with every live tuple of p, a vector of slots at a
// time (Partition.LiveSlots).
func eachLive(p *olap.Partition, fn func(tup []byte)) {
	slots := make([]int32, 64)
	for next := 0; next < p.Slots(); {
		var n int
		n, next = p.LiveSlots(p.Slots(), next, slots)
		for _, s := range slots[:n] {
			fn(p.Tuple(s))
		}
	}
}
