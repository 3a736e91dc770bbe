package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
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
			{Name: "name", Type: storage.String, Size: 8},
		}, []int{0}),
		expSum:   map[int64]float64{},
		expCount: map[int64]int64{},
		nOrders:  orders,
	}
	f.replica = olap.NewReplica(parts)
	f.replica.CreateTable(f.orders, orders)
	f.replica.CreateTable(f.custs, customers)

	rng := rand.New(rand.NewSource(7))
	regionOf := map[int64]int64{}
	for c := 1; c <= customers; c++ {
		reg := rng.Int63n(5)
		regionOf[int64(c)] = reg
		tup := f.custs.NewTuple()
		f.custs.PutInt64(tup, 0, int64(c))
		f.custs.PutInt64(tup, 1, reg)
		f.custs.PutString(tup, 2, fmt.Sprintf("c%d", c))
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

// regionQuery builds "SELECT SUM(amount), COUNT(*) FROM orders,
// customers WHERE o.cust = c.id AND c.region = reg".
func (f *fixture) regionQuery(reg int64) *Query {
	return &Query{
		Name:   "regionSum",
		Driver: tblOrders,
		Probes: []Probe{{
			Table: tblCustomers,
			From:  -1,
			Key:   []KeyField{KeyCol(1, 0)},
			Where: []Pred{CmpInt(1, EQ, reg)},
		}},
		Aggs: []AggSpec{SumCol(2), {Kind: Count}},
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
	f.replica.CreateTable(regions, 5)
	for rID := int64(0); rID < 5; rID++ {
		tup := regions.NewTuple()
		regions.PutInt64(tup, 0, rID)
		regions.PutFloat64(tup, 1, float64(rID)*100)
		if err := f.replica.LoadTuple(tblBonus, uint64(rID), tup); err != nil {
			t.Fatal(err)
		}
	}
	return regions
}

// bonusQuery counts, per region bonus, the orders of the customers of
// the region: orders → customers → regions, the second probe's key read
// from the customer row, so it is a linked step, resolved through a
// cached link array from customer rows to region rows.
func (f *fixture) bonusQuery() *Query {
	return &Query{
		Name:   "chain",
		Driver: tblOrders,
		Probes: []Probe{
			{Table: tblCustomers, From: -1, Key: []KeyField{KeyCol(1, 0)}},
			{Table: tblBonus, From: 0, Key: []KeyField{KeyCol(1, 0)}},
		},
		GroupBy: []GroupCol{{From: 1, Col: 1}},
		Aggs:    []AggSpec{{Kind: Count}},
	}
}

// bonusSum is the sum over a bonusQuery result's orders of their
// region's bonus. A group's key is the bonus's order-preserving key.
func bonusSum(r Result) float64 {
	bonus := map[int64]float64{}
	for rID := 0; rID < 5; rID++ {
		b := float64(rID) * 100
		bonus[storage.OrdKeyFloat64(b)] = b
	}
	sum := 0.0
	for _, g := range r.Groups {
		sum += bonus[g.Key[0]] * float64(g.Rows)
	}
	return sum
}

// bonusWant is the bonusSum the fixture's data implies.
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
		Aggs:   []AggSpec{SumCol(2), {Kind: Count}},
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
// the lookups counted are each batch's root step, one per order, and
// one construction's, one per customer row.
func TestConcurrentBatchesBuildOnce(t *testing.T) {
	const orders, customers, batches = 1000, 200, 8
	f := buildFixture(t, 4, orders, customers)
	f.addRegions(t)
	e := NewEngine(f.replica, 2)
	var st olap.SchedulerStats
	e.AttachStats(&st)
	var wg sync.WaitGroup
	results := make([][]Result, batches)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.RunBatch([]*Query{f.bonusQuery()}, 0)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res[0].Err != nil {
			t.Fatalf("batch %d: %v", i, res[0].Err)
		}
		if !almostEqual(bonusSum(res[0]), f.bonusWant()) {
			t.Fatalf("batch %d: sum %f, want %f", i, bonusSum(res[0]), f.bonusWant())
		}
	}
	if n, want := st.ExecProbeLookups.Load(), uint64(batches*orders+customers); n != want {
		t.Fatalf("%d probe lookups, want exactly %d (one link construction)", n, want)
	}
}

// TestBuildCacheInvalidation: an apply round that moves every customer
// into region 1 changes the customers' data version, so the cached link
// array from customers to regions is remade and the query sees the move.
func TestBuildCacheInvalidation(t *testing.T) {
	f := buildFixture(t, 2, 100, 10)
	f.addRegions(t)
	e := NewEngine(f.replica, 1)
	q := f.bonusQuery()
	before := e.RunBatch([]*Query{q}, 0)
	if before[0].Err != nil || !almostEqual(bonusSum(before[0]), f.bonusWant()) {
		t.Fatalf("before the round: %+v, want sum %f", before[0], f.bonusWant())
	}

	tup := f.custs.NewTuple()
	f.custs.PutInt64(tup, 1, 1)
	off, size := f.custs.Offset(1), f.custs.ColSize(1)
	region1 := tup[off : off+size]
	buf := proplog.NewBuffer(0)
	for c := 1; c <= 10; c++ {
		buf.Add(tblCustomers, proplog.Entry{VID: 1, Kind: proplog.Update, Key: uint64(c), Offset: uint32(off), Size: uint32(size), Data: region1})
	}
	f.replica.ApplyUpdates([]proplog.Batch{buf.Take()}, 1)
	if _, err := f.replica.ApplyPending(1); err != nil {
		t.Fatal(err)
	}

	after := e.RunBatch([]*Query{q}, 0)
	if want := 100 * float64(f.nOrders); !almostEqual(bonusSum(after[0]), want) {
		t.Fatalf("after the round sum = %f, want %f (stale link array?)", bonusSum(after[0]), want)
	}
}

// TestMultiProbeChain: orders -> customers -> regions, a chain through
// two tables where the second probe's key comes from the first joined
// row: a linked step, made once per customer row.
func TestMultiProbeChain(t *testing.T) {
	const orders, customers = 500, 50
	f := buildFixture(t, 2, orders, customers)
	f.addRegions(t)
	e := NewEngine(f.replica, 2)
	var st olap.SchedulerStats
	e.AttachStats(&st)
	res := e.RunBatch([]*Query{f.bonusQuery()}, 0)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if want := f.bonusWant(); !almostEqual(bonusSum(res[0]), want) {
		t.Fatalf("chained sum = %f, want %f", bonusSum(res[0]), want)
	}
	if l := st.ExecProbeLookups.Load(); l != orders+customers {
		t.Fatalf("%d probe lookups, want %d (the root step and the link array)", l, orders+customers)
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
		Aggs:   []AggSpec{SumCol(2), {Kind: Count}},
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
