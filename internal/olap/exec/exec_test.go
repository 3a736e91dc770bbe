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
	"batchdb/internal/storage"
)

// Test fixture: orders(id, cust, amount) joined with customers(id,
// region) — a miniature of the CH shape.
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
			Table:      tblCustomers,
			BuildKeyID: "pk",
			BuildKey:   func(tup []byte) uint64 { return uint64(f.custs.GetInt64(tup, 0)) },
			ProbeKey:   func(d []byte, _ [][]byte) uint64 { return uint64(f.orders.GetInt64(d, 1)) },
			Pred:       func(tup []byte) bool { return f.custs.GetInt64(tup, 1) == reg },
		}},
		Aggs: []AggSpec{
			{Kind: Sum, Value: func(d []byte, _ [][]byte) float64 { return f.orders.GetFloat64(d, 2) }},
			{Kind: Count},
		},
	}
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

// TestConcurrentBatchesBuildOnce exercises the check-or-claim build
// cache: many concurrent RunBatch calls against one engine must
// construct the (unchanged) build side exactly once — every BuildKey
// invocation is counted, and one construction costs one invocation per
// build-side tuple.
func TestConcurrentBatchesBuildOnce(t *testing.T) {
	const customers = 200
	f := buildFixture(t, 4, 1000, customers)
	e := NewEngine(f.replica, 2)
	var keyCalls atomic.Int64
	mkQuery := func() *Query {
		q := f.regionQuery(1)
		q.Probes[0].BuildKeyID = "counted"
		inner := q.Probes[0].BuildKey
		q.Probes[0].BuildKey = func(tup []byte) uint64 {
			keyCalls.Add(1)
			return inner(tup)
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
		if !almostEqual(res[0].Values[0], f.expSum[1]) {
			t.Fatalf("batch %d: sum %f, want %f", i, res[0].Values[0], f.expSum[1])
		}
	}
	if n := keyCalls.Load(); n != customers {
		t.Fatalf("BuildKey called %d times, want exactly %d (one construction)", n, customers)
	}
}

func TestBuildCacheInvalidation(t *testing.T) {
	f := buildFixture(t, 2, 100, 10)
	e := NewEngine(f.replica, 1)
	q := f.regionQuery(1)
	before := e.RunBatch([]*Query{q}, 0)

	// Move every customer into region 1: the build must be rebuilt, and
	// the query must now see the total.
	tbl := f.replica.Table(tblCustomers)
	for _, p := range tbl.Partitions {
		var ids []uint64
		p.Scan(func(rowID uint64, _ []byte) bool { ids = append(ids, rowID); return true })
		for _, id := range ids {
			tup, _ := p.Get(id)
			cp := append([]byte(nil), tup...)
			f.custs.PutInt64(cp, 1, 1)
			p.Delete(id)
			p.Insert(id, cp)
		}
	}
	// Simulate an applied update round bumping the version.
	f.replica.LoadTuple(tblCustomers, 9999, func() []byte {
		tup := f.custs.NewTuple()
		f.custs.PutInt64(tup, 0, 9999)
		f.custs.PutInt64(tup, 1, 2)
		return tup
	}())

	after := e.RunBatch([]*Query{q}, 0)
	if almostEqual(before[0].Values[0], f.total) {
		t.Fatalf("fixture degenerate: before already equals total")
	}
	if !almostEqual(after[0].Values[0], f.total) {
		t.Fatalf("after rebuild sum = %f, want total %f (stale build cache?)", after[0].Values[0], f.total)
	}
}

func TestMultiProbeChain(t *testing.T) {
	// orders -> customers -> regions(virtual): chain through two builds,
	// where the second probe's key comes from the first joined row.
	f := buildFixture(t, 2, 500, 50)
	regions := storage.NewSchema(3, "regions", []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "bonus", Type: storage.Float64},
	}, []int{0})
	f.replica.CreateTable(regions, 5)
	for rID := int64(0); rID < 5; rID++ {
		tup := regions.NewTuple()
		regions.PutInt64(tup, 0, rID)
		regions.PutFloat64(tup, 1, float64(rID)*100)
		if err := f.replica.LoadTuple(3, uint64(rID)+1, tup); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(f.replica, 2)
	q := &Query{
		Name:   "chain",
		Driver: tblOrders,
		Probes: []Probe{
			{
				Table: tblCustomers, BuildKeyID: "pk",
				BuildKey: func(tup []byte) uint64 { return uint64(f.custs.GetInt64(tup, 0)) },
				ProbeKey: func(d []byte, _ [][]byte) uint64 { return uint64(f.orders.GetInt64(d, 1)) },
			},
			{
				Table: 3, BuildKeyID: "pk",
				BuildKey: func(tup []byte) uint64 { return uint64(regions.GetInt64(tup, 0)) },
				// Key depends on the previously joined customer row.
				ProbeKey: func(_ []byte, joined [][]byte) uint64 {
					return uint64(f.custs.GetInt64(joined[0], 1))
				},
			},
		},
		Aggs: []AggSpec{{Kind: Sum, Value: func(_ []byte, joined [][]byte) float64 {
			return regions.GetFloat64(joined[1], 1)
		}}},
	}
	res := e.RunBatch([]*Query{q}, 0)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	// Reference: for each order, bonus of its customer's region.
	want := 0.0
	for reg, cnt := range f.expCount {
		want += float64(reg) * 100 * float64(cnt)
	}
	if !almostEqual(res[0].Values[0], want) {
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

func BenchmarkShardedBuild(b *testing.B) {
	// Build-side heavy: tiny driver, large build table; a fresh engine
	// per iteration keeps the build cache cold so construction dominates.
	f := buildFixture(b, 8, 500, 20000)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := NewEngine(f.replica, w)
				e.MorselTuples = 2048
				q := f.regionQuery(1)
				q.Probes[0].BuildKeyID = "bench" // force hash-build construction
				if res := e.RunBatch([]*Query{q}, 0); res[0].Err != nil {
					b.Fatal(res[0].Err)
				}
			}
		})
	}
}
