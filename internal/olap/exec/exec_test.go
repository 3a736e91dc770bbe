package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"batchdb/internal/olap"
	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// Test fixture: orders(id, cust, amount) joined with customers(id,
// region) — a miniature of the CH shape. Every table is keyed by its
// column 0.
const (
	tblOrders    storage.TableID = 1
	tblCustomers storage.TableID = 2
)

// col0Key is the primary key of a schema keyed by its Int64 column 0.
func col0Key(s *storage.Schema) func([]byte) uint64 {
	return func(tup []byte) uint64 { return uint64(s.GetInt64(tup, 0)) }
}

type fixture struct {
	replica *olap.Replica
	orders  *storage.Schema
	custs   *storage.Schema
	// expected[r] = sum of amounts of orders whose customer is in region r.
	expSum   map[int64]float64
	expCount map[int64]int64
	total    float64
	nOrders  int
}

func buildFixture(t testing.TB, parts, orders, customers int) *fixture {
	t.Helper()
	f := &fixture{
		orders: storage.NewSchema(tblOrders, "orders", []storage.Column{
			{Name: "id", Type: storage.Int64},
			{Name: "cust", Type: storage.Int64},
			{Name: "amount", Type: storage.Float64},
		}, []int{0}),
		custs: storage.NewSchema(tblCustomers, "customers", []storage.Column{
			{Name: "id", Type: storage.Int64},
			{Name: "region", Type: storage.Int64},
		}, []int{0}),
		expSum:   map[int64]float64{},
		expCount: map[int64]int64{},
		nOrders:  orders,
	}
	f.replica = olap.NewReplica(parts)
	f.replica.CreateTable(f.orders, col0Key(f.orders), orders)
	f.replica.CreateTable(f.custs, col0Key(f.custs), customers)

	rng := rand.New(rand.NewSource(7))
	regionOf := map[int64]int64{}
	for c := 1; c <= customers; c++ {
		reg := rng.Int63n(5)
		regionOf[int64(c)] = reg
		tup := f.custs.NewTuple()
		f.custs.PutInt64(tup, 0, int64(c))
		f.custs.PutInt64(tup, 1, reg)
		if err := f.replica.LoadTuple(tblCustomers, uint64(c), tup); err != nil {
			t.Fatal(err)
		}
	}
	for o := 1; o <= orders; o++ {
		c := rng.Int63n(int64(customers)) + 1
		amt := float64(rng.Intn(1000)) / 10
		tup := f.orders.NewTuple()
		f.orders.PutInt64(tup, 0, int64(o))
		f.orders.PutInt64(tup, 1, c)
		f.orders.PutFloat64(tup, 2, amt)
		if err := f.replica.LoadTuple(tblOrders, uint64(o), tup); err != nil {
			t.Fatal(err)
		}
		f.expSum[regionOf[c]] += amt
		f.expCount[regionOf[c]]++
		f.total += amt
	}
	return f
}

// regionQuery builds "SELECT SUM(amount) FROM orders, customers WHERE
// o.cust = c.id AND c.region = reg".
func (f *fixture) regionQuery(reg int64) *Query {
	return &Query{
		Name:   "regionSum",
		Driver: tblOrders,
		Probes: []Probe{{
			Table:    tblCustomers,
			ProbeKey: func(d []byte, _ [][]byte) uint64 { return uint64(f.orders.GetInt64(d, 1)) },
			Pred:     func(tup []byte) bool { return f.custs.GetInt64(tup, 1) == reg },
		}},
		Aggs: []AggSpec{
			{Kind: Sum, Value: func(d []byte, _ [][]byte) float64 { return f.orders.GetFloat64(d, 2) }},
			{Kind: Count},
		},
	}
}

// tblBonus is the regions(id, bonus) table addRegions creates: region
// r has bonus r*100.
const tblBonus storage.TableID = 3

func (f *fixture) addRegions(t testing.TB) *storage.Schema {
	t.Helper()
	regions := storage.NewSchema(tblBonus, "regions", []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "bonus", Type: storage.Float64},
	}, []int{0})
	f.replica.CreateTable(regions, col0Key(regions), 5)
	for rID := int64(0); rID < 5; rID++ {
		tup := regions.NewTuple()
		regions.PutInt64(tup, 0, rID)
		regions.PutFloat64(tup, 1, float64(rID)*100)
		if err := f.replica.LoadTuple(tblBonus, uint64(rID)+1, tup); err != nil {
			t.Fatal(err)
		}
	}
	return regions
}

// bonusQuery sums, over all orders, the bonus of the order's customer's
// region: orders → customers → regions, the second probe's key read from
// the customer row. With declared keys the second probe is a linked
// step, resolved through a cached link array from customer rows to
// region rows.
func (f *fixture) bonusQuery(regions *storage.Schema, declared bool) *Query {
	q := &Query{
		Name:   "chain",
		Driver: tblOrders,
		Probes: []Probe{
			{
				Table:    tblCustomers,
				ProbeKey: func(d []byte, _ [][]byte) uint64 { return uint64(f.orders.GetInt64(d, 1)) },
			},
			{
				Table: tblBonus,
				ProbeKey: func(_ []byte, joined [][]byte) uint64 {
					return uint64(f.custs.GetInt64(joined[0], 1))
				},
			},
		},
		Aggs: []AggSpec{{Kind: Sum, Value: func(_ []byte, joined [][]byte) float64 {
			return regions.GetFloat64(joined[1], 1)
		}}},
	}
	if declared {
		q.Probes[0].KeyID, q.Probes[0].From = "o.cust", -1
		q.Probes[1].KeyID, q.Probes[1].From = "c.region", 0
	}
	return q
}

// bonusWant is the bonusQuery answer the fixture's data implies.
func (f *fixture) bonusWant() float64 {
	want := 0.0
	for reg, cnt := range f.expCount {
		want += float64(reg) * 100 * float64(cnt)
	}
	return want
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6*(1+math.Abs(a)+math.Abs(b)) }

func TestScanOnlyQuery(t *testing.T) {
	f := buildFixture(t, 4, 500, 50)
	e := NewEngine(f.replica, 2)
	q := &Query{
		Name:   "totalSum",
		Driver: tblOrders,
		Aggs: []AggSpec{
			{Kind: Sum, Value: func(d []byte, _ [][]byte) float64 { return f.orders.GetFloat64(d, 2) }},
			{Kind: Count},
		},
	}
	res := e.RunBatch([]*Query{q}, 0)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if !almostEqual(res[0].Values[0], f.total) {
		t.Fatalf("sum = %f, want %f", res[0].Values[0], f.total)
	}
	if res[0].Values[1] != float64(f.nOrders) {
		t.Fatalf("count = %f, want %d", res[0].Values[1], f.nOrders)
	}
}

func TestJoinQueryMatchesReference(t *testing.T) {
	f := buildFixture(t, 3, 1000, 100)
	e := NewEngine(f.replica, 2)
	for reg := int64(0); reg < 5; reg++ {
		res := e.RunBatch([]*Query{f.regionQuery(reg)}, 0)
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		if !almostEqual(res[0].Values[0], f.expSum[reg]) {
			t.Fatalf("region %d sum = %f, want %f", reg, res[0].Values[0], f.expSum[reg])
		}
		if int64(res[0].Values[1]) != f.expCount[reg] {
			t.Fatalf("region %d count = %f, want %d", reg, res[0].Values[1], f.expCount[reg])
		}
	}
}

func TestSharedBatchEqualsIndividual(t *testing.T) {
	f := buildFixture(t, 4, 2000, 200)
	batch := make([]*Query, 0, 10)
	for reg := int64(0); reg < 5; reg++ {
		batch = append(batch, f.regionQuery(reg), f.regionQuery(reg))
	}
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		e := NewEngine(f.replica, workers)
		e.MorselTuples = 256 // force multi-morsel scans even at this scale
		shared := e.RunBatch(batch, 0)

		e2 := NewEngine(f.replica, workers)
		e2.MorselTuples = 256
		for i, q := range batch {
			individual := e2.RunBatch([]*Query{q}, 0)[0]
			if shared[i].Err != nil || individual.Err != nil {
				t.Fatalf("workers=%d errs: %v %v", workers, shared[i].Err, individual.Err)
			}
			if !almostEqual(shared[i].Values[0], individual.Values[0]) ||
				shared[i].Values[1] != individual.Values[1] {
				t.Fatalf("workers=%d query %d: shared %v != individual %v",
					workers, i, shared[i].Values, individual.Values)
			}
		}
	}
}

// TestConcurrentBatchesBuildOnce exercises the check-or-claim cache:
// many concurrent RunBatch calls against one engine must construct the
// link array over the (unchanged) customers and regions exactly once —
// every call of the linked probe's key is counted, and one construction
// makes one per customer row.
func TestConcurrentBatchesBuildOnce(t *testing.T) {
	const customers = 200
	f := buildFixture(t, 4, 1000, customers)
	regions := f.addRegions(t)
	e := NewEngine(f.replica, 2)
	var keyCalls atomic.Int64
	mkQuery := func() *Query {
		q := f.bonusQuery(regions, true)
		inner := q.Probes[1].ProbeKey
		q.Probes[1].ProbeKey = func(d []byte, joined [][]byte) uint64 {
			keyCalls.Add(1)
			return inner(d, joined)
		}
		return q
	}
	var wg sync.WaitGroup
	results := make([][]Result, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.RunBatch([]*Query{mkQuery()}, 0)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res[0].Err != nil {
			t.Fatalf("batch %d: %v", i, res[0].Err)
		}
		if !almostEqual(res[0].Values[0], f.bonusWant()) {
			t.Fatalf("batch %d: sum %f, want %f", i, res[0].Values[0], f.bonusWant())
		}
	}
	if n := keyCalls.Load(); n != customers {
		t.Fatalf("linked ProbeKey called %d times, want exactly %d (one construction)", n, customers)
	}
}

// TestBuildCacheInvalidation: an apply round that moves every customer
// into region 1 changes the customers' data version, so the cached link
// array from customers to regions is remade and the query sees the move.
func TestBuildCacheInvalidation(t *testing.T) {
	f := buildFixture(t, 2, 100, 10)
	regions := f.addRegions(t)
	e := NewEngine(f.replica, 1)
	q := f.bonusQuery(regions, true)
	before := e.RunBatch([]*Query{q}, 0)
	if before[0].Err != nil || !almostEqual(before[0].Values[0], f.bonusWant()) {
		t.Fatalf("before the round: %+v, want sum %f", before[0], f.bonusWant())
	}

	tup := f.custs.NewTuple()
	f.custs.PutInt64(tup, 1, 1)
	off, size := f.custs.Offset(1), f.custs.ColSize(1)
	region1 := tup[off : off+size]
	buf := proplog.NewBuffer(0)
	for c := 1; c <= 10; c++ {
		buf.Add(tblCustomers, proplog.Entry{VID: 1, Kind: proplog.Update, RowID: uint64(c), Offset: uint32(off), Size: uint32(size), Data: region1})
	}
	f.replica.ApplyUpdates([]proplog.Batch{buf.Take()}, 1)
	if _, err := f.replica.ApplyPending(1); err != nil {
		t.Fatal(err)
	}

	after := e.RunBatch([]*Query{q}, 0)
	if want := 100 * float64(f.nOrders); !almostEqual(after[0].Values[0], want) {
		t.Fatalf("after the round sum = %f, want %f (stale link array?)", after[0].Values[0], want)
	}
}

func TestMultiProbeChain(t *testing.T) {
	// orders -> customers -> regions: a chain through two tables, where
	// the second probe's key comes from the first joined row.
	f := buildFixture(t, 2, 500, 50)
	regions := f.addRegions(t)
	e := NewEngine(f.replica, 2)
	res := e.RunBatch([]*Query{f.bonusQuery(regions, false)}, 0)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if want := f.bonusWant(); !almostEqual(res[0].Values[0], want) {
		t.Fatalf("chained sum = %f, want %f", res[0].Values[0], want)
	}
}

func TestUnknownTables(t *testing.T) {
	f := buildFixture(t, 1, 10, 5)
	e := NewEngine(f.replica, 1)
	q := &Query{Name: "bad", Driver: 99}
	res := e.RunBatch([]*Query{q}, 0)
	if res[0].Err == nil {
		t.Fatal("unknown driver accepted")
	}
	q2 := f.regionQuery(0)
	q2.Probes[0].Table = 98
	res2 := e.RunBatch([]*Query{q2}, 0)
	if res2[0].Err == nil {
		t.Fatal("unknown probe table accepted")
	}
}

func TestEmptyBatch(t *testing.T) {
	f := buildFixture(t, 1, 10, 5)
	e := NewEngine(f.replica, 1)
	if res := e.RunBatch(nil, 0); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}

func BenchmarkMorselScan(b *testing.B) {
	f := buildFixture(b, 8, 20000, 500)
	q := &Query{
		Name:   "totalSum",
		Driver: tblOrders,
		Aggs: []AggSpec{
			{Kind: Sum, Value: func(d []byte, _ [][]byte) float64 { return f.orders.GetFloat64(d, 2) }},
			{Kind: Count},
		},
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			e := NewEngine(f.replica, w)
			e.MorselTuples = 2048
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := e.RunBatch([]*Query{q}, 0); res[0].Err != nil {
					b.Fatal(res[0].Err)
				}
			}
		})
	}
}

// TestEngineSharesReplicaPool pins one pool per replica: the executor
// sizes the replica's pool to its workers and runs its scans on that
// pool, and a scheduler built over the replica makes no second one.
func TestEngineSharesReplicaPool(t *testing.T) {
	f := buildFixture(t, 2, 200, 20)
	e := NewEngine(f.replica, 3)
	if e.pool != f.replica.Pool() {
		t.Fatal("executor and replica hold different pools")
	}
	if w := f.replica.Pool().Workers(); w != 3 {
		t.Fatalf("replica pool has %d workers, want the executor's 3", w)
	}
	res := e.RunBatch([]*Query{f.regionQuery(1)}, 0)
	if res[0].Err != nil || !almostEqual(res[0].Values[0], f.expSum[1]) {
		t.Fatalf("query on the shared pool: %+v, want sum %v", res[0], f.expSum[1])
	}

	s := NewScheduler(f.replica, olap.StaticPrimary(0), 2)
	defer s.Close()
	if w := f.replica.Pool().Workers(); w != 2 {
		t.Fatalf("after NewScheduler the replica pool has %d workers, want 2", w)
	}
}
